package raftmongo

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
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

// everyOther is a NextWhere keep predicate that admits every other
// candidate, starting with the first, and records the encoding of each
// admitted candidate as keep saw it.
type everyOther struct {
	calls    int
	admitted [][]byte
}

func (e *everyOther) keep(c State) bool {
	e.calls++
	if e.calls%2 == 0 {
		return false
	}
	e.admitted = append(e.admitted, c.AppendBinary(nil))
	return true
}

// checkClipped fails unless every oplog c stores is clipped or passed on
// unchanged from its parent p.
func checkClipped(t *testing.T, p, c State) {
	t.Helper()
	for i, log := range c.Oplogs {
		passedOn := len(log) == len(p.Oplogs[i]) && unsafe.SliceData(log) == unsafe.SliceData(p.Oplogs[i])
		if !passedOn && len(log) != cap(log) {
			t.Fatalf("successor %s of %s stores node %d's oplog unclipped (len %d, cap %d)", c, p, i, len(log), cap(log))
		}
	}
}

// TestActionsNeverWriteTheirInput pins the copy-on-write contract of State:
// successors share slices with their parent, so no action may write into
// its input. Every action is applied to each parent and then to each of
// its successors, through Next and through NextWhere; afterwards the
// parent and every first-generation successor must still encode as
// before, and the spare capacity of the parents' oplogs must be
// untouched. Every oplog an action stores must be clipped; only an oplog
// passed on from the parent may have spare room. A successor NextWhere
// keeps must own its slices: it encodes as keep saw it once the call has
// built its later candidates in the same scratch, and after further calls.
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
				var succs, kept []State
				var keptEncs [][]byte
				for _, a := range spec.Actions {
					succs = append(succs, a.Next(p)...)
					var e everyOther
					ks := a.NextWhere(p, e.keep)
					if len(ks) != len(e.admitted) {
						t.Fatalf("%s.NextWhere(%s) returned %d successors, keep admitted %d", a.Name, p, len(ks), len(e.admitted))
					}
					for k, c := range ks {
						if !bytes.Equal(c.AppendBinary(nil), e.admitted[k]) {
							t.Fatalf("%s.NextWhere(%s) kept %s, but keep saw %x: the kept successor aliases the call's scratch", a.Name, p, c, e.admitted[k])
						}
						checkClipped(t, p, c)
					}
					kept = append(kept, ks...)
					keptEncs = append(keptEncs, e.admitted...)
				}
				encs := make([][]byte, len(succs))
				for k, c := range succs {
					encs[k] = c.AppendBinary(nil)
					checkClipped(t, p, c)
				}
				for _, c := range succs {
					for _, a := range spec.Actions {
						a.Next(c)
					}
				}
				for _, c := range kept {
					for _, a := range spec.Actions {
						odd := false
						a.NextWhere(c, func(State) bool { odd = !odd; return odd })
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
				for k, c := range kept {
					if !bytes.Equal(c.AppendBinary(nil), keptEncs[k]) {
						t.Fatalf("a kept successor of %s changed to %s after further calls", p, c)
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

// projectionOf is the keep predicate of a trace observation of node n in
// state want: it holds when n's role, term, commit point and oplog equal
// want's and, if exclusive, every other node is a follower.
func projectionOf(want State, n int, exclusive bool) func(State) bool {
	return func(s State) bool {
		if s.Roles[n] != want.Roles[n] || s.Terms[n] != want.Terms[n] ||
			s.CommitPoints[n] != want.CommitPoints[n] || !slices.Equal(s.Oplogs[n], want.Oplogs[n]) {
			return false
		}
		if exclusive {
			for j, r := range s.Roles {
				if j != n && r != Follower {
					return false
				}
			}
		}
		return true
	}
}

// encodings returns the binary encodings of states, in order: equal
// exactly when the states' keys are (FuzzBinaryKeyAgreement).
func encodings(states []State) []string {
	out := make([]string, len(states))
	for i, s := range states {
		out[i] = string(s.AppendBinary(nil))
	}
	return out
}

// TestNextWhereMatchesFilteredNext pins the NextWhere contract of every
// action of both variants: NextWhere(s, keep) is Next(s) filtered by keep,
// in Next's order. The states are every reachable state at smallCfg, their
// copies with spare oplog capacity, and the long-oplog states of
// TestSuccessorBytesIndependentOfOplogLength. The predicates keep every
// candidate, none, and those that agree with a target on node n's
// projection (with and without LeaderExclusive), for each node and for
// each target among the parent (keeping the candidates that leave node n
// alone) and the action's successors.
func TestNextWhereMatchesFilteredNext(t *testing.T) {
	variants := map[string]func(Config) *tla.Spec[State]{"V1": SpecV1, "V2": SpecV2}
	for name, variant := range variants {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			states := reachable(t, variant(smallCfg()))
			for _, s := range states[:len(states):len(states)] {
				states = append(states, withSpareCapacity(s))
			}
			checkNextWhere(t, variant(smallCfg()), states)
			checkNextWhere(t, variant(Config{Nodes: 5}), []State{longLogState(8), longLogState(2048)})
		})
	}
}

// checkNextWhere checks NextWhere against filtered Next for every action
// of spec on every state of states (see TestNextWhereMatchesFilteredNext).
func checkNextWhere(t *testing.T, spec *tla.Spec[State], states []State) {
	t.Helper()
	always := func(State) bool { return true }
	never := func(State) bool { return false }
	projected := make(map[string]bool) // node projections with a predicate
	var buf []byte
	for _, s := range states {
		for _, a := range spec.Actions {
			succs := a.Next(s)
			encs := encodings(succs)
			preds := []func(State) bool{always, never}
			clear(projected)
			for _, target := range append([]State{s}, succs...) {
				for n := range s.Roles {
					node := State{Roles: target.Roles[n : n+1], Terms: target.Terms[n : n+1],
						CommitPoints: target.CommitPoints[n : n+1], Oplogs: target.Oplogs[n : n+1]}
					buf = node.AppendBinary(append(buf[:0], byte(n)))
					if !projected[string(buf)] {
						projected[string(buf)] = true
						preds = append(preds, projectionOf(target, n, false), projectionOf(target, n, true))
					}
				}
			}
			for k, keep := range preds {
				var want []string
				for i, c := range succs {
					if keep(c) {
						want = append(want, encs[i])
					}
				}
				got := a.NextWhere(s, keep)
				same := len(got) == len(want)
				for i := 0; same && i < len(got); i++ {
					buf = got[i].AppendBinary(buf[:0])
					same = string(buf) == want[i]
				}
				if !same {
					t.Fatalf("%s on %s, predicate %d: NextWhere = %v, want the encodings %q of filtered Next", a.Name, s, k, got, want)
				}
			}
		}
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
