package tla

import (
	"errors"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// This file defines the visited store the exploration engine dedups
// through, with its in-memory implementation, and the level-synchronized
// frontier. The engine itself (engine.go) is store-agnostic: the in-memory
// sharded fingerprint map, the collision-free full-encoding map, and the
// disk-spilling store (spill.go) all run under the identical
// expansion/merge loop, which is how the sequential oracle, the parallel
// checker, and the bounded-memory checker stay byte-for-byte comparable.

// VisitedEntry is a store's ticket for one canonical encoding. The engine
// assigns ID during the deterministic merge phase; a store may persist and
// later restore the assignment (the spilling store writes (fingerprint, ID)
// records to its sorted runs).
type VisitedEntry struct {
	// ID is the state's dense id, or -1 while the encoding is only
	// claimed: a successor seen this level whose canonical position is
	// decided during the merge, or a fingerprint spilled to disk that has
	// not yet been matched by ResolveLevel.
	ID int

	// owner is 1 + the lowest expansion chunk index that kept a successor
	// state for this unassigned entry (0: none yet); see keepState.
	owner atomic.Int32
}

// keepState reports whether expansion chunk c must keep the successor state
// of its candidate for this unassigned entry: true for the first candidate
// of the entry in merge order (chunk order, then emission order within a
// chunk), where the merge assigns the id. The lowest claiming chunk always
// wins the CAS, and a chunk asks successfully only once, so every later
// candidate — a duplicate edge at merge time — carries no state. A higher
// chunk that asked before a lower one also keeps its state; that copy is
// merely unused.
func (e *VisitedEntry) keepState(c int) bool {
	want := int32(c) + 1
	for {
		cur := e.owner.Load()
		if cur != 0 && cur <= want {
			return false
		}
		if e.owner.CompareAndSwap(cur, want) {
			return true
		}
	}
}

// visitedStore is the deduplication half of the exploration engine: it maps
// canonical state encodings to VisitedEntry tickets. The engine drives it
// in level-synchronized strokes:
//
//   - Claim is called concurrently by expansion workers (and by the merge
//     goroutine for initial states). The first claim of an encoding creates
//     the entry with ID -1; every later claim of the same encoding must
//     return the same entry. The encoding slice is only valid during the
//     call — stores must copy what they keep.
//   - ResolveLevel runs on the merge goroutine after all workers joined and
//     before the merge replays the level's candidates. Stores that defer
//     part of their lookup (the spilling store's merge-on-lookup against
//     its disk runs) restore previously assigned IDs here.
//   - EndLevel runs after the merge assigned IDs to the level's new states;
//     stores enforce memory budgets here (the spilling store seals
//     over-budget shards into a sorted run).
//   - Close releases any resources (temp files) when the run finishes.
//
// For checkpoint/resume, snapshotRuns seals the store's dedup state into
// sorted run files under dir (names returned relative to dir, store
// unmodified), and adoptRuns restores a previous snapshot into a fresh
// store.
type visitedStore interface {
	Claim(enc []byte) *VisitedEntry
	ResolveLevel() error
	EndLevel() error
	Close() error
	snapshotRuns(fsys FS, dir, prefix string) ([]string, error)
	adoptRuns(fsys FS, srcDir string, names []string) error
}

// levelFrontier is the pending-work half of the engine: a double-buffered
// level-synchronized queue of discovered-but-unexpanded states, holding
// each one's id and live value — the only live S values the engine keeps
// (everything else is encoded in the arena). The merge goroutine Pushes;
// NextLevel hands out the accumulated level and recycles the previously
// handed-out slices for the next one, dropping the expanded level's live
// values, so a steady exploration allocates no frontier storage after the
// widest level. An empty level ends the exploration.
type levelFrontier[S State] struct {
	ids, nextIDs       []int
	states, nextStates []S
}

func (f *levelFrontier[S]) Push(id int, s S) {
	f.nextIDs = append(f.nextIDs, id)
	f.nextStates = append(f.nextStates, s)
}

func (f *levelFrontier[S]) NextLevel() ([]int, []S) {
	clear(f.states)
	f.ids, f.nextIDs = f.nextIDs, f.ids[:0]
	f.states, f.nextStates = f.nextStates, f.states[:0]
	return f.ids, f.states
}

// visitedShards is the number of independently locked shards of the
// visited stores. A power of two so the shard index is a mask of the
// fingerprint.
const visitedShards = 64

type memShard struct {
	mu    sync.Mutex
	byFP  map[uint64]*VisitedEntry // fingerprint mode
	byKey map[string]*VisitedEntry // collision-free mode
}

// memVisited is the in-memory sharded visited store. Workers claim
// fingerprints concurrently under per-shard mutexes while expanding a
// frontier; the merge phase (single goroutine, after all workers joined)
// assigns ids without locking. In collision-free mode the shard maps key on
// full canonical encodings instead of 64-bit fingerprints — always the case
// for the sequential oracle (Workers == 1), which must never be subject to
// fingerprint collisions.
type memVisited struct {
	collisionFree bool
	shards        [visitedShards]memShard
}

func newMemVisited(collisionFree bool) *memVisited {
	vs := &memVisited{collisionFree: collisionFree}
	for i := range vs.shards {
		if collisionFree {
			vs.shards[i].byKey = make(map[string]*VisitedEntry)
		} else {
			vs.shards[i].byFP = make(map[uint64]*VisitedEntry)
		}
	}
	return vs
}

// Claim returns the entry for the canonical encoding enc, creating it (with
// ID -1) if it was never seen. The fingerprint selects the shard in both
// modes; collision-free mode additionally keys the shard map on the full
// encoding, copying it to a string only when inserting a new entry. Safe
// for concurrent use; the first claimant creates the entry, later
// claimants of the same encoding get the same entry. Which goroutine
// creates an entry is racy, but immaterial: ids are assigned only during
// the sequential merge, in deterministic order.
func (vs *memVisited) Claim(enc []byte) *VisitedEntry {
	fp := fingerprint(enc)
	sh := &vs.shards[fp&(visitedShards-1)]
	sh.mu.Lock()
	var e *VisitedEntry
	if vs.collisionFree {
		e = sh.byKey[string(enc)] // no alloc: map lookup by converted []byte
		if e == nil {
			e = &VisitedEntry{ID: -1}
			sh.byKey[string(enc)] = e
		}
	} else {
		e = sh.byFP[fp]
		if e == nil {
			e = &VisitedEntry{ID: -1}
			sh.byFP[fp] = e
		}
	}
	sh.mu.Unlock()
	return e
}

func (vs *memVisited) ResolveLevel() error { return nil }
func (vs *memVisited) EndLevel() error     { return nil }
func (vs *memVisited) Close() error        { return nil }

// snapshotRuns persists the fingerprint map as one sorted run file in dir,
// in the same 16-byte (fingerprint, id) record format the spilling store
// seals, so a checkpoint's visited set is store-agnostic on disk. Only
// entries with assigned ids are persisted; an ID -1 claim belongs to a
// level whose merge never ran, and the resume re-discovers it.
func (vs *memVisited) snapshotRuns(fsys FS, dir, prefix string) ([]string, error) {
	if vs.collisionFree {
		return nil, errors.New("tla: collision-free visited store cannot be checkpointed")
	}
	recs := []spillRec{}
	for i := range vs.shards {
		for fp, e := range vs.shards[i].byFP {
			if e.ID >= 0 {
				recs = append(recs, spillRec{fp: fp, id: int64(e.ID)})
			}
		}
	}
	if len(recs) == 0 {
		return nil, nil
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].fp < recs[j].fp })
	name := prefix + "visited-resident"
	if err := retryIO(func() error { return writeRecsFile(fsys, filepath.Join(dir, name), recs) }); err != nil {
		return nil, err
	}
	return []string{name}, nil
}

// adoptRuns loads a checkpoint's visited runs straight into the shard maps
// — the in-memory store has no merge-on-lookup phase to defer to, so every
// persisted (fingerprint, id) pair becomes a resident entry with its id
// already assigned.
func (vs *memVisited) adoptRuns(fsys FS, srcDir string, names []string) error {
	if vs.collisionFree {
		return errors.New("tla: collision-free visited store cannot adopt a checkpoint")
	}
	for _, name := range names {
		err := retryIO(func() error {
			return readRecsFile(fsys, filepath.Join(srcDir, name), func(rec spillRec) error {
				sh := &vs.shards[rec.fp&(visitedShards-1)]
				if sh.byFP[rec.fp] == nil {
					sh.byFP[rec.fp] = &VisitedEntry{ID: int(rec.id)}
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// newVisitedStore selects the visited store for a validated Options:
// the spilling fingerprint store when a memory budget is set, the
// collision-free map when exactness is demanded (explicitly, or implicitly
// by the sequential oracle path), and the sharded fingerprint map
// otherwise. A checkpointing run forces fingerprint mode even for the
// sequential oracle — checkpoints persist (fingerprint, id) records, which
// a full-encoding map cannot be rebuilt from.
func newVisitedStore(opts Options, workers int, em *engineMetrics) visitedStore {
	if opts.MemoryBudgetBytes > 0 {
		return newSpillVisited(opts.MemoryBudgetBytes, opts.FS, em)
	}
	return newMemVisited(opts.CollisionFree || (workers == 1 && !opts.checkpointing()))
}
