package trace

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// randomEvents is a replica-set event stream for Process: nodes append,
// roll back, copy each other's oplogs, win elections and step down, and
// some appends report a truncated oplog that prefix filling must repair
// from the node's own previous oplog.
func randomEvents(seed int64, nodes, count int) []Event {
	rng := rand.New(rand.NewSource(seed))
	logs := make([][]int, nodes)
	roles := make([]string, nodes)
	for i := range roles {
		roles[i] = "Follower"
	}
	term := 1
	var evs []Event
	for k := 0; k < count; k++ {
		n := rng.Intn(nodes)
		start := 1
		switch rng.Intn(6) {
		case 0:
			term++
			for i := range roles {
				roles[i] = "Follower"
			}
			roles[n] = "Leader"
		case 1:
			roles[n] = "Follower"
		case 2:
			if len(logs[n]) > 0 {
				logs[n] = logs[n][:len(logs[n])-1]
			}
		case 3:
			logs[n] = slices.Clone(logs[rng.Intn(nodes)])
		default:
			logs[n] = append(slices.Clip(logs[n]), term)
			if len(logs[n]) > 2 && rng.Intn(2) == 0 {
				start = 2
			}
		}
		e := Event{Node: n, Action: "Step", Role: roles[n], Term: term,
			CommitPointTerm: term, CommitPointIndex: len(logs[n]), OplogStart: start,
			Oplog: slices.Clone(logs[n][start-1:])}
		if len(logs[n]) == 0 {
			e.OplogStart = 0
		}
		evs = append(evs, e)
	}
	return evs
}

// TestProcessStatesNeverChange pins the copy-on-write contract of Process:
// states share slices with their predecessors, so processing later events
// must not change an earlier state. Each state of one run must encode as
// the last state of a run over just the events before it, and every
// oplog must be clipped.
func TestProcessStatesNeverChange(t *testing.T) {
	const nodes = 3
	events := randomEvents(1, nodes, 300)
	full, err := Process(nodes, events, ProcessOptions{FillOplogPrefixes: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.PrefixFill == 0 {
		t.Fatal("no event exercised prefix filling")
	}
	for k := range events {
		prefix, err := Process(nodes, events[:k], ProcessOptions{FillOplogPrefixes: true})
		if err != nil {
			t.Fatal(err)
		}
		want := prefix.States[k].AppendBinary(nil)
		if got := full.States[k]; !bytes.Equal(got.AppendBinary(nil), want) {
			t.Fatalf("state %d changed to %s once later events were processed", k, got)
		}
		for i, log := range full.States[k].Oplogs {
			if len(log) != cap(log) {
				t.Fatalf("state %d stores node %d's oplog unclipped (len %d, cap %d)", k, i, len(log), cap(log))
			}
		}
	}
}

// longLogEvents are events in which nodes 1..nodes-1 report oplogs of l
// entries, followed by tail events of node 0 with a short oplog that
// alternately take and give up leadership.
func longLogEvents(nodes, l, tail int) (head, all []Event) {
	log := make([]int, l)
	for k := range log {
		log[k] = 1
	}
	for n := 1; n < nodes; n++ {
		head = append(head, Event{Node: n, Action: "AppendOplog", Role: "Follower", Term: 1, OplogStart: 1, Oplog: log})
	}
	all = slices.Clone(head)
	for k := 0; k < tail; k++ {
		role := "Leader"
		if k%2 == 1 {
			role = "Follower"
		}
		all = append(all, Event{Node: 0, Action: "ClientWrite", Role: role, Term: 2 + k, OplogStart: 1, Oplog: []int{1, 2}})
	}
	return head, all
}

// processBytes is the heap bytes Process allocates for events, averaged
// over reps calls on this goroutine.
func processBytes(t *testing.T, nodes int, events []Event) float64 {
	t.Helper()
	const reps = 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < reps; r++ {
		if _, err := Process(nodes, events, ProcessOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / reps
}

// TestProcessBytesIndependentOfOtherOplogs guards against a return to the
// per-event deep copy, which made post-processing quadratic in trace
// length: what Process allocates for an event must not grow with the
// other nodes' oplog lengths.
func TestProcessBytesIndependentOfOtherOplogs(t *testing.T) {
	const nodes, tail, short, long = 5, 256, 8, 2048
	perEvent := func(l int) float64 {
		head, all := longLogEvents(nodes, l, tail)
		return (processBytes(t, nodes, all) - processBytes(t, nodes, head)) / tail
	}
	bShort, bLong := perEvent(short), perEvent(long)
	if bLong >= 2*bShort {
		t.Errorf("%.0f B per event beside oplogs of %d entries vs %.0f B beside %d: events copy the other nodes' oplogs", bLong, long, bShort, short)
	}
}
