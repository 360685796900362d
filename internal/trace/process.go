package trace

import (
	"fmt"
	"slices"

	"repro/internal/raftmongo"
)

// This file is the Go port of the paper's Python post-processing script
// (Figure 3): it folds a timestamp-ordered stream of single-node trace
// events into a sequence of whole-replica-set specification states.

// ProcessOptions tune the state-sequence construction.
type ProcessOptions struct {
	// FillOplogPrefixes enables "solution 4" for the copying-the-oplog
	// discrepancy (§4.2.2): when a node reports an oplog that starts past
	// entry 1 (it initial-synced only recent entries), the processor
	// fills in the missing prefix from another node whose oplog overlaps
	// consistently, simulating the conformant spec behaviour of copying
	// the whole log. Without this option such events are an error.
	FillOplogPrefixes bool
}

// ProcessResult carries the constructed state sequence and accounting.
type ProcessResult struct {
	States     []raftmongo.State
	Actions    []string // Actions[i] produced States[i+1]
	PrefixFill int      // events whose oplogs were repaired (solution 4)
}

// Process builds the replica-set state sequence from merged events,
// starting from the canonical initial state (every node a follower at term
// 0 with an empty oplog and NULL commit point). The combination rule is
// the paper's:
//
//   - role: the script assumes at most one leader at a time. If the event
//     reports node N as Leader, N becomes Leader and all others Follower.
//     If N was Leader and now reports Follower, only N changes.
//   - term, commitPoint, oplog: N's values are replaced; others keep theirs.
//
// The states are copy-on-write, as raftmongo.State requires: a state
// shares with its predecessor every slice its event did not write, so an
// event costs its own oplog plus O(nodes), whatever the other nodes'
// oplog lengths. Every oplog is clipped and read-only.
func Process(nodes int, events []Event, opts ProcessOptions) (*ProcessResult, error) {
	cur := initialState(nodes)
	res := &ProcessResult{States: []raftmongo.State{cur}}
	for i, e := range events {
		if e.Node < 0 || e.Node >= nodes {
			return nil, fmt.Errorf("trace: event %d names node %d of %d", i, e.Node, nodes)
		}
		next, filled, err := combine(cur, e, opts)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d (%s at %v): %w", i, e.Action, e.Timestamp, err)
		}
		if filled {
			res.PrefixFill++
		}
		res.States = append(res.States, next)
		res.Actions = append(res.Actions, e.Action)
		cur = next
	}
	return res, nil
}

func initialState(nodes int) raftmongo.State {
	s := raftmongo.State{
		Roles:        make([]raftmongo.Role, nodes),
		Terms:        make([]int, nodes),
		CommitPoints: make([]raftmongo.CommitPoint, nodes),
		Oplogs:       make([][]int, nodes),
	}
	for i := range s.Oplogs {
		s.Oplogs[i] = []int{}
	}
	return s
}

// combine implements the Figure 3 transition S + E -> S'. It copies only
// the slices the event writes: node N's new oplog, Terms, CommitPoints,
// the Oplogs header, and Roles when the event changes a role.
func combine(s raftmongo.State, e Event, opts ProcessOptions) (raftmongo.State, bool, error) {
	n := e.Node
	next := s
	switch e.Role {
	case "Leader":
		if !soleLeader(s.Roles, n) {
			next.Roles = make([]raftmongo.Role, len(s.Roles)) // all Follower
			next.Roles[n] = raftmongo.Leader
		}
	case "Follower":
		if s.Roles[n] != raftmongo.Follower {
			next.Roles = slices.Clone(s.Roles)
			next.Roles[n] = raftmongo.Follower
		}
	default:
		return s, false, fmt.Errorf("unknown role %q", e.Role)
	}

	var prefix []int
	filled := false
	switch {
	case e.OplogStart == 1 || (e.OplogStart == 0 && len(e.Oplog) == 0):
		// Complete oplog reported.
	case e.OplogStart > 1:
		if !opts.FillOplogPrefixes {
			return s, false, fmt.Errorf("node %d reported a truncated oplog (start %d) and prefix filling is disabled", n, e.OplogStart)
		}
		var err error
		if prefix, err = findPrefix(s, n, e.OplogStart-1, e.Oplog); err != nil {
			return s, false, err
		}
		filled = true
	default:
		return s, false, fmt.Errorf("node %d event has invalid oplog start %d", n, e.OplogStart)
	}
	oplog := make([]int, 0, len(prefix)+len(e.Oplog)) // clipped once full
	oplog = append(append(oplog, prefix...), e.Oplog...)

	next.Terms = slices.Clone(s.Terms)
	next.Terms[n] = e.Term
	next.CommitPoints = slices.Clone(s.CommitPoints)
	next.CommitPoints[n] = e.CommitPoint()
	next.Oplogs = slices.Clone(s.Oplogs)
	next.Oplogs[n] = oplog
	return next, filled, nil
}

// soleLeader reports whether n is the only leader in roles.
func soleLeader(roles []raftmongo.Role, n int) bool {
	for i, r := range roles {
		if (r == raftmongo.Leader) != (i == n) {
			return false
		}
	}
	return true
}

// findPrefix locates the missing first `need` oplog entries for node n by
// searching the other nodes' current oplogs for one that is consistent
// with the reported suffix. This mirrors the paper's Python logic that
// "filled in the missing entries while it generated the state sequence" —
// and inherits its documented risk: a bug here could mask a real
// transcription bug, which is why PrefixFill events are counted and
// reported. The prefix returned aliases a current oplog: it is read-only.
func findPrefix(s raftmongo.State, n, need int, suffix []int) ([]int, error) {
	// The node's own previous (already filled) oplog is the natural donor:
	// the hidden prefix cannot have changed while the node rolled back or
	// appended at the tail.
	if len(s.Oplogs[n]) >= need {
		return s.Oplogs[n][:need], nil
	}
	for j := range s.Oplogs {
		if j == n {
			continue
		}
		donor := s.Oplogs[j]
		if len(donor) < need {
			continue
		}
		// The donor's entries after the prefix must agree with the
		// reported suffix on their overlap.
		ok := true
		for k := 0; k < len(suffix) && need+k < len(donor); k++ {
			if donor[need+k] != suffix[k] {
				ok = false
				break
			}
		}
		if ok {
			return donor[:need], nil
		}
	}
	return nil, fmt.Errorf("no node's oplog can supply the %d missing prefix entries for node %d", need, n)
}

// Observations adapts a state sequence for the trace checker: each state
// becomes a full observation.
func Observations(states []raftmongo.State) []FullStateObs {
	out := make([]FullStateObs, len(states))
	for i, s := range states {
		out[i] = FullStateObs{State: s}
	}
	return out
}

// FullStateObs observes a complete replica-set state.
type FullStateObs struct{ State raftmongo.State }

// Matches reports whether the spec state equals the observed state.
func (o FullStateObs) Matches(s raftmongo.State) bool { return s.Key() == o.State.Key() }

func (o FullStateObs) String() string { return o.State.Key() }
