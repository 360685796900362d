package raftmongo

import "repro/internal/tla"

// SpecV1 is the original, pre-MBTC RaftMongo specification (§4.2.2 "Term"):
// the election term is one global number all nodes know instantaneously, so
// there is no term-gossip action and no term check when learning the commit
// point. This is the variant whose state space the paper reports as 42,034
// states, model-checked in 2 seconds.
func SpecV1(cfg Config) *tla.Spec[State] {
	qs := quorumTable(cfg.Nodes)
	return &tla.Spec[State]{
		Name: "RaftMongoV1",
		Init: func() []State { return []State{cfg.initState()} },
		Actions: []tla.Action[State]{
			action("AppendOplog", appendOplog),
			action("RollbackOplog", rollbackOplog),
			action("BecomePrimaryByMagic", func(s State, keep func(State) bool) []State {
				return becomePrimaryByMagic(s, keep, true, qs)
			}),
			action("Stepdown", stepdown),
			action("ClientWrite", clientWrite),
			action("AdvanceCommitPoint", advanceCommitPoint),
			action("LearnCommitPoint", learnCommitPointV1),
		},
		Invariants: []tla.Invariant[State]{
			{Name: "CommitPointIsCommitted", Check: commitPointIsCommitted},
			{Name: "OneLeaderPerTerm", Check: oneLeaderPerTerm},
			{Name: "AtMostOneLeader", Check: atMostOneLeader},
		},
		Constraint:      cfg.constraint,
		SymmetryVisitor: cfg.symmetry(),
		Independence:    Independence(),
	}
}

// SpecV2 is the post-MBTC rewrite: terms are per-node and gossiped via
// UpdateTermThroughHeartbeat, and the two commit-point learning actions of
// the real system are modelled. The paper reports this rewrite changed 252
// of 345 lines of TLA+ and grew the state space to 371,368 states,
// model-checked in 14 minutes (experiment E7).
func SpecV2(cfg Config) *tla.Spec[State] {
	qs := quorumTable(cfg.Nodes)
	return &tla.Spec[State]{
		Name: "RaftMongoV2",
		Init: func() []State { return []State{cfg.initState()} },
		Actions: []tla.Action[State]{
			action("AppendOplog", appendOplog),
			action("RollbackOplog", rollbackOplog),
			action("BecomePrimaryByMagic", func(s State, keep func(State) bool) []State {
				return becomePrimaryByMagic(s, keep, false, qs)
			}),
			action("Stepdown", stepdown),
			action("ClientWrite", clientWrite),
			action("AdvanceCommitPoint", advanceCommitPoint),
			action("UpdateTermThroughHeartbeat", updateTermThroughHeartbeat),
			action("LearnCommitPointWithTermCheck", learnCommitPointWithTermCheck),
			action("LearnCommitPointFromSyncSourceNeverBeyondLastApplied", learnCommitPointFromSyncSource),
		},
		Invariants: []tla.Invariant[State]{
			{Name: "CommitPointIsCommitted", Check: commitPointIsCommitted},
			{Name: "OneLeaderPerTerm", Check: oneLeaderPerTerm},
			{Name: "AtMostOneLeader", Check: atMostOneLeader},
		},
		Constraint:      cfg.constraint,
		SymmetryVisitor: cfg.symmetry(),
		Independence:    Independence(),
	}
}

// action makes a tla.Action of an action written in keep form (see
// actions.go): Next is the unfiltered call, NextWhere the filtered one.
func action(name string, where func(State, func(State) bool) []State) tla.Action[State] {
	return tla.Action[State]{
		Name:      name,
		Next:      func(s State) []State { return where(s, nil) },
		NextWhere: where,
	}
}

// atMostOneLeader is the original specification's simplifying assumption
// (§4.2.2 "Two leaders"): the real election protocol briefly permits two
// leaders, but RaftMongo.tla assumes one, and the paper's authors avoided
// tests exhibiting two so traces would check.
func atMostOneLeader(s State) error {
	count := 0
	for _, r := range s.Roles {
		if r == Leader {
			count++
		}
	}
	if count > 1 {
		return errTwoLeaders
	}
	return nil
}

// errTwoLeaders reports a violation of the at-most-one-leader assumption.
var errTwoLeaders = errTwoLeadersType{}

type errTwoLeadersType struct{}

func (errTwoLeadersType) Error() string { return "more than one leader at a time" }
