package raftmongo

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/tla"
)

// spareSentinel fills the spare capacity of the oplogs withSpareCapacity
// builds: an action that appended into a shared backing array would
// overwrite it.
const spareSentinel = -7

// withSpareCapacity rebuilds s with append-grown slices, so every oplog
// (and every per-node slice) has room past its length — the shape an
// action that appends in place would corrupt.
func withSpareCapacity(s State) State {
	c := State{
		Roles:        append(make([]Role, 0, len(s.Roles)+2), s.Roles...),
		Terms:        append(make([]int, 0, len(s.Terms)+2), s.Terms...),
		CommitPoints: append(make([]CommitPoint, 0, len(s.CommitPoints)+2), s.CommitPoints...),
		Oplogs:       make([][]int, 0, len(s.Oplogs)+2),
	}
	for _, log := range s.Oplogs {
		grown := append(make([]int, 0, len(log)+3), log...)
		spare := grown[len(grown):cap(grown)]
		for k := range spare {
			spare[k] = spareSentinel
		}
		c.Oplogs = append(c.Oplogs, grown)
	}
	return c
}

// reachable returns every state spec reaches, decoded from its graph.
func reachable(t *testing.T, spec *tla.Spec[State]) []State {
	t.Helper()
	res, err := tla.Check(spec, tla.Options{RecordGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Graph.Close()
	out := make([]State, res.Graph.Len())
	for id := range out {
		out[id] = res.Graph.StateAt(id)
	}
	return out
}

// TestActionsNeverWriteTheirInput pins the copy-on-write contract of State:
// successors share slices with their parent, so no action may write into
// its input. Every action is applied to each parent and then to each of
// its successors; afterwards the parent and every first-generation
// successor must still encode as before, and the spare capacity of the
// parents' oplogs must be untouched. Every oplog an action stores must be
// clipped; only an oplog passed on from the parent may have spare room.
func TestActionsNeverWriteTheirInput(t *testing.T) {
	cfg := smallCfg()
	for name, spec := range map[string]*tla.Spec[State]{"V1": SpecV1(cfg), "V2": SpecV2(cfg)} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			parents := reachable(t, spec)
			for _, s := range parents[:len(parents):len(parents)] {
				parents = append(parents, withSpareCapacity(s))
			}
			for _, p := range parents {
				pEnc := p.AppendBinary(nil)
				var succs []State
				for _, a := range spec.Actions {
					succs = append(succs, a.Next(p)...)
				}
				encs := make([][]byte, len(succs))
				for k, c := range succs {
					encs[k] = c.AppendBinary(nil)
					for i, log := range c.Oplogs {
						passedOn := len(log) == len(p.Oplogs[i]) && unsafe.SliceData(log) == unsafe.SliceData(p.Oplogs[i])
						if !passedOn && len(log) != cap(log) {
							t.Fatalf("successor %s of %s stores node %d's oplog unclipped (len %d, cap %d)", c, p, i, len(log), cap(log))
						}
					}
				}
				for _, c := range succs {
					for _, a := range spec.Actions {
						a.Next(c)
					}
				}
				if !bytes.Equal(p.AppendBinary(nil), pEnc) {
					t.Fatalf("an action wrote into its input %s", p)
				}
				for k, c := range succs {
					if !bytes.Equal(c.AppendBinary(nil), encs[k]) {
						t.Fatalf("a successor of %s changed to %s when its own successors were generated", p, c)
					}
				}
				for i, log := range p.Oplogs {
					for _, v := range log[len(log):cap(log)] {
						if v != spareSentinel {
							t.Fatalf("an action appended into node %d's shared oplog of %s", i, p)
						}
					}
				}
			}
		})
	}
}

// longLogState is a 5-node state with oplogs of about l entries on which
// every action but ClientWrite of both variants has a successor: node 0
// leads term 3 with a term-3 entry on a majority, node 1 lags on a prefix
// (AppendOplog, UpdateTermThroughHeartbeat), node 2 diverged
// (RollbackOplog), and node 3 knows the commit point (commit-point
// learning).
func longLogState(l int) State {
	ones := make([]int, l-1)
	for k := range ones {
		ones[k] = 1
	}
	a := append(ones, 3) // ones is full, so each append copies
	return State{
		Roles:        []Role{Leader, Follower, Follower, Follower, Follower},
		Terms:        []int{3, 1, 2, 3, 3},
		CommitPoints: []CommitPoint{{}, {}, {}, {Term: 3, Index: l}, {}},
		Oplogs:       [][]int{a, ones, append(ones, 2), a, a},
	}
}

// bytesPerSuccessor is the heap bytes next allocates per successor of s,
// averaged over reps calls on this goroutine.
func bytesPerSuccessor(next func(State) []State, s State) (float64, int) {
	const reps = 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := 0
	for r := 0; r < reps; r++ {
		n += len(next(s))
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), n / reps
}

// TestSuccessorBytesIndependentOfOplogLength guards against a return to
// per-successor deep copies, which made trace checking quadratic in trace
// length: what an action allocates per successor must not grow with the
// oplog length. ClientWrite must copy the writer's oplog (an append to a
// shared clipped oplog copies), so it is held to one oplog copy instead.
func TestSuccessorBytesIndependentOfOplogLength(t *testing.T) {
	const short, long = 8, 2048
	cfg := Config{Nodes: 5} // the actions ignore the state constraint
	for _, spec := range []*tla.Spec[State]{SpecV1(cfg), SpecV2(cfg)} {
		for _, a := range spec.Actions {
			t.Run(fmt.Sprintf("%s/%s", spec.Name, a.Name), func(t *testing.T) {
				bShort, nShort := bytesPerSuccessor(a.Next, longLogState(short))
				bLong, nLong := bytesPerSuccessor(a.Next, longLogState(long))
				if nShort == 0 || nLong == 0 {
					t.Fatalf("no successors (%d at length %d, %d at length %d)", nShort, short, nLong, long)
				}
				if a.Name == "ClientWrite" {
					if oneCopy := float64(8 * (long + 1)); bLong > 1.5*oneCopy {
						t.Errorf("%.0f B per successor at oplog length %d, want at most one oplog copy (%.0f B)", bLong, long, oneCopy)
					}
					return
				}
				if bLong >= 2*bShort {
					t.Errorf("%.0f B per successor at oplog length %d vs %.0f B at %d: successors copy oplogs", bLong, long, bShort, short)
				}
			})
		}
	}
}
