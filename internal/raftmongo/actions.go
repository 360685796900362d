package raftmongo

import "slices"

// This file implements the named state transitions of RaftMongo.tla, shared
// between the V1 and V2 spec variants. Every function enumerates all
// successors of a state via one action, across all nodes (and source nodes,
// for the gossip actions), exactly as a TLA+ action quantified over the
// server set.
//
// Successors are copy-on-write (see State): an action never writes into
// its input, and a successor allocates only the variable the action
// writes — a fresh Roles, Terms or CommitPoints slice, or a fresh Oplogs
// header — and shares every other slice with its parent. Oplogs are
// shared too: AppendOplog aliases a prefix of the sync source's oplog and
// RollbackOplog reslices the node's own, so ClientWrite is the only action
// that allocates an oplog. Every oplog an action stores is clipped
// (len == cap), so no later append can write into a backing array another
// state shares. A successor therefore costs O(n) whatever the oplog
// lengths, which keeps trace checking linear in trace length.

// appendOplog: node i receives entries from any node j that is strictly
// ahead and whose oplog extends i's. The MongoDB Server uses a pull
// protocol, so any node — not only the leader — can be a sync source. Any
// batch size up to the full gap may transfer in one step: the paper's
// specification models initial sync as copying the leader's entire oplog
// at once, which is what makes the post-processor's prefix filling
// (solution 4) produce checkable traces.
func appendOplog(s State) []State {
	var out []State
	n := s.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || len(s.Oplogs[j]) <= len(s.Oplogs[i]) || !s.isPrefix(i, j) {
				continue
			}
			// i's oplog is a prefix of j's, so j's first k entries are
			// exactly i's oplog extended by the batch.
			out = slices.Grow(out, len(s.Oplogs[j])-len(s.Oplogs[i]))
			for k := len(s.Oplogs[i]) + 1; k <= len(s.Oplogs[j]); k++ {
				out = append(out, s.withOplog(i, s.Oplogs[j][:k:k]))
			}
		}
	}
	return out
}

// rollbackOplog: node i removes its newest oplog entry because some node j
// is strictly more up-to-date and their logs have diverged (i's log is not
// a prefix of j's). Repeated application removes the whole divergent
// suffix.
func rollbackOplog(s State) []State {
	var out []State
	n := s.NumNodes()
	for i := 0; i < n; i++ {
		if len(s.Oplogs[i]) == 0 {
			continue
		}
		canRollback := false
		for j := 0; j < n; j++ {
			if j != i && s.logAhead(j, i) && !s.isPrefix(i, j) {
				canRollback = true
				break
			}
		}
		if !canRollback {
			continue
		}
		l := len(s.Oplogs[i]) - 1
		out = append(out, s.withOplog(i, s.Oplogs[i][:l:l]))
	}
	return out
}

// quorumTable lists, for each candidate i of an n-node replica set, every
// majority subset of {0..n-1} containing i. The spec constructors build it
// once per node count; becomePrimaryByMagic only reads it, so concurrent
// workers share it.
func quorumTable(n int) [][][]int {
	t := make([][][]int, n)
	for i := range t {
		t[i] = quorums(n, i)
	}
	return t
}

// quorums enumerates every majority subset of {0..n-1} containing node i.
func quorums(n, i int) [][]int {
	var out [][]int
	need := Majority(n)
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) >= need {
			out = append(out, append([]int(nil), cur...))
		}
		if len(cur) == n {
			return
		}
		for j := start; j < n; j++ {
			if j == i {
				continue
			}
			rec(j+1, append(cur, j))
		}
	}
	rec(0, []int{i})
	return out
}

// becomePrimaryByMagic: node i is elected leader instantaneously — the
// election protocol is abstracted away. A quorum of voters must exist, none
// of whose oplogs is more up-to-date than i's (Raft's voting rule).
//
// In V1 (globalTerm) the new term is the global term + 1 and every node
// knows it immediately — the original specification's idealization that
// MBTC exposed as unrealistic (§4.2.2 "Term").
//
// In V2 — the post-MBTC rewrite — the new term is one past the largest term
// any voter knows, and only the leader and its voters learn it; the rest of
// the set discovers it later through UpdateTermThroughHeartbeat, "each
// learning the new term at a different time". Updating the voters' terms in
// the action is what provides election safety: any two majorities overlap,
// so a second election must pick a strictly larger term. (A trace event
// reports only the new leader's state; the trace checker treats the voters'
// term updates as unobserved variables — Pressler's refinement technique.)
//
// Both variants keep the original specification's simplifying assumption of
// at most one leader at a time (§4.2.2 "Two leaders"): on election, every
// other node reverts to follower.
//
// qs is quorumTable(s.NumNodes()).
func becomePrimaryByMagic(s State, globalTerm bool, qs [][][]int) []State {
	var out []State
	n := s.NumNodes()
	for i := 0; i < n; i++ {
		for _, q := range qs[i] {
			eligible := true
			for _, j := range q {
				if s.logAhead(j, i) {
					eligible = false
					break
				}
			}
			if !eligible {
				continue
			}
			c := s
			c.Roles = make([]Role, n) // all Follower
			c.Roles[i] = Leader
			c.Terms = slices.Clone(s.Terms)
			if globalTerm {
				newTerm := s.maxTerm() + 1
				for j := range c.Terms {
					c.Terms[j] = newTerm
				}
			} else {
				newTerm := 0
				for _, j := range q {
					if s.Terms[j] > newTerm {
						newTerm = s.Terms[j]
					}
				}
				newTerm++
				for _, j := range q {
					c.Terms[j] = newTerm
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// stepdown: a leader voluntarily becomes a follower.
func stepdown(s State) []State {
	var out []State
	for i, r := range s.Roles {
		if r != Leader {
			continue
		}
		c := s
		c.Roles = slices.Clone(s.Roles)
		c.Roles[i] = Follower
		out = append(out, c)
	}
	return out
}

// clientWrite: a leader executes a write, appending an entry stamped with
// its current term to its own oplog. It is the only action that allocates
// an oplog: the copy is exactly one entry longer, so it is clipped.
func clientWrite(s State) []State {
	var out []State
	for i, r := range s.Roles {
		if r != Leader {
			continue
		}
		log := make([]int, len(s.Oplogs[i])+1)
		copy(log, s.Oplogs[i])
		log[len(log)-1] = s.Terms[i]
		out = append(out, s.withOplog(i, log))
	}
	return out
}

// advanceCommitPoint: the leader advances its commit point to the newest
// entry of its oplog that a majority of nodes have replicated. Per Raft's
// commit rule, the leader only directly commits entries from its own
// current term.
func advanceCommitPoint(s State) []State {
	var out []State
	n := s.NumNodes()
	for i, r := range s.Roles {
		if r != Leader {
			continue
		}
		best := s.CommitPoints[i]
		for idx := len(s.Oplogs[i]); idx >= 1; idx-- {
			term := s.Oplogs[i][idx-1]
			if term != s.Terms[i] {
				break // older-term entries commit only transitively
			}
			have := 0
			for j := 0; j < n; j++ {
				if len(s.Oplogs[j]) >= idx && s.Oplogs[j][idx-1] == term {
					have++
				}
			}
			if have >= Majority(n) {
				cp := CommitPoint{Term: term, Index: idx}
				if best.Before(cp) {
					best = cp
				}
				break
			}
		}
		if best == s.CommitPoints[i] {
			continue
		}
		out = append(out, s.withCommitPoint(i, best))
	}
	return out
}

// learnCommitPointV1: in the global-term variant, a node simply copies a
// newer commit point from any node — with a single global term there is
// nothing to cross-check.
func learnCommitPointV1(s State) []State {
	var out []State
	n := s.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !s.CommitPoints[i].Before(s.CommitPoints[j]) {
				continue
			}
			out = append(out, s.withCommitPoint(i, s.CommitPoints[j]))
		}
	}
	return out
}

// updateTermThroughHeartbeat: node i learns a newer election term from any
// node j. If i believed itself leader, discovering a newer term makes it
// step down — as in the implementation.
func updateTermThroughHeartbeat(s State) []State {
	var out []State
	n := s.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || s.Terms[j] <= s.Terms[i] {
				continue
			}
			c := s
			c.Terms = slices.Clone(s.Terms)
			c.Terms[i] = s.Terms[j]
			if s.Roles[i] == Leader {
				c.Roles = slices.Clone(s.Roles)
				c.Roles[i] = Follower
			}
			out = append(out, c)
		}
	}
	return out
}

// learnCommitPointWithTermCheck: node i adopts node j's newer commit point
// only if the commit point's term is not newer than i's own term — a node
// must not trust a commit point from a term it has not yet heard of.
func learnCommitPointWithTermCheck(s State) []State {
	var out []State
	n := s.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !s.CommitPoints[i].Before(s.CommitPoints[j]) {
				continue
			}
			if s.CommitPoints[j].Term > s.Terms[i] {
				continue
			}
			out = append(out, s.withCommitPoint(i, s.CommitPoints[j]))
		}
	}
	return out
}

// learnCommitPointFromSyncSourceNeverBeyondLastApplied: node i learns the
// commit point from a node j it could sync from (i's oplog is a prefix of
// j's), capped at i's own last applied entry — a node may not advertise a
// commit point beyond the data it actually has.
func learnCommitPointFromSyncSource(s State) []State {
	var out []State
	n := s.NumNodes()
	for i := 0; i < n; i++ {
		if len(s.Oplogs[i]) == 0 {
			continue
		}
		lastApplied := CommitPoint{Term: s.LastTerm(i), Index: len(s.Oplogs[i])}
		for j := 0; j < n; j++ {
			if i == j || !s.isPrefix(i, j) || len(s.Oplogs[j]) < len(s.Oplogs[i]) {
				continue
			}
			learned := s.CommitPoints[j]
			if lastApplied.Before(learned) {
				learned = lastApplied
			}
			if !s.CommitPoints[i].Before(learned) {
				continue
			}
			out = append(out, s.withCommitPoint(i, learned))
		}
	}
	return out
}

// withOplog returns s with node i's oplog replaced by log, which must be
// clipped (len == cap). Only the n-entry Oplogs header is copied.
func (s State) withOplog(i int, log []int) State {
	s.Oplogs = slices.Clone(s.Oplogs)
	s.Oplogs[i] = log
	return s
}

// withCommitPoint returns s with node i's commit point replaced by cp.
func (s State) withCommitPoint(i int, cp CommitPoint) State {
	s.CommitPoints = slices.Clone(s.CommitPoints)
	s.CommitPoints[i] = cp
	return s
}
