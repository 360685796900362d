package tla

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// This file implements the retained-state arena: how the engine retains
// every discovered state. A fingerprint set bounds deduplication memory at
// 8 bytes per state (spilling to disk past the budget — spill.go); the
// arena does the same for the states themselves, which a counterexample,
// a checkpoint and a recorded graph must be able to reproduce.
//
// Per state the arena keeps the plain encoding (codec.encode: the
// byte-packed BinaryState encoding, or the Key() bytes) and a fixed
// ~24-byte record (parent id, action index, depth, encoding location).
// Live S values exist only for the unexpanded frontier, which carries
// them (levelFrontier) and drops them once the level is expanded. Under
// Options.MemoryBudgetBytes, sealed arena segments are spilled to a temp
// file and read back on demand, so the visited set AND state retention
// both respect the budget.
//
// A state is reconstructed by decode or by replay: when the spec state
// implements BinaryDecoder the stored encoding is decoded directly;
// otherwise the parent chain is replayed — re-execute the recorded action
// at each step and select the successor whose encoding matches the stored
// bytes. The arena stores each state's plain encoding, not the
// orbit-canonical one the visited store dedups on: the plain encoding
// identifies the exact state explored (encodings agree with Key() by
// contract), so reconstructed traces and graph states are the states the
// run actually visited, even under symmetry reduction, and storing it
// costs one encoding per distinct state instead of an orbit scan.
//
// Under Options.RecordGraph the arena is also the state graph's store:
// graph edges (parent id, action index, child id) are appended to their own
// segment list as fixed-width records, spilled to the same temp file under
// the same budget, and Result.Graph serves states and edges from the arena
// — see Graph.

// arenaSegBytes is the size of a full arena segment. Segments are sealed
// when full (or when a budget flush forces it) and become the unit of disk
// spilling. A list's first segments are smaller (see stateArena.tail).
const (
	arenaSegBytes    = 1 << 20
	arenaMinSegBytes = 16 << 10
)

// arenaMeta is the fixed-size per-state record: the parent link and where
// the state's canonical encoding lives.
type arenaMeta struct {
	parent int32  // parent state id, -1 for initial states
	depth  int32  // discovery depth (BFS depth under level-sync)
	act    uint16 // interned action name index; 0 is the initial-state sentinel
	seg    uint32 // segment holding the encoding
	off    uint32 // offset of the encoding within the segment
	n      uint32 // encoding length
}

// arenaSeg is one sealed or in-progress run of encoding bytes. Resident
// segments hold their bytes in buf; spilled segments record where in the
// arena's temp file the same bytes live.
type arenaSeg struct {
	buf     []byte
	fileOff int64
	size    int
	spilled bool
}

// stateArena is the append-only encoded-state store. It is single-owner:
// the engine touches it from the merge goroutine only.
type stateArena struct {
	budget   int64 // 0 = never spill
	fsys     FS
	em       *engineMetrics // nil-safe observability sink
	meta     []arenaMeta
	segs     []arenaSeg
	resident int64 // encoding + edge bytes currently held in memory
	file     File
	fileSize int64
	degraded bool // a persistent spill-write failure switched to resident retention of segments

	// Edge recording (Options.RecordGraph): graph edges live in their own
	// segment list of fixed arenaEdgeBytes records, sharing the resident
	// budget and the spill file with the encodings.
	recordEdges bool
	edgeSegs    []arenaSeg
	edgeCount   int
	lastFrom    int  // highest From appended so far; -1 before the first edge
	edgesMono   bool // From values arrived in nondecreasing order, as the BFS merge records them
}

func newArena(budget int64, fsys FS, em *engineMetrics) *stateArena {
	return &stateArena{budget: budget, fsys: resolveFS(fsys), em: em, lastFrom: -1, edgesMono: true}
}

// arenaEdgeBytes is the fixed size of one recorded edge: from uint32,
// action index uint16, to uint32, all little-endian.
const arenaEdgeBytes = 10

func (a *stateArena) len() int { return len(a.meta) }

// add appends one state's canonical encoding and parent link. The caller's
// id for the record is the arena's current length before the call; enc is
// copied, so it may alias a codec's scratch buffer.
func (a *stateArena) add(enc []byte, parent int, act uint16, depth int) error {
	seg := a.tail(&a.segs, len(enc))
	off := seg.size
	seg.buf = append(seg.buf, enc...)
	seg.size += len(enc)
	a.resident += int64(len(enc))
	a.meta = append(a.meta, arenaMeta{
		parent: int32(parent),
		depth:  int32(depth),
		act:    act,
		seg:    uint32(len(a.segs) - 1),
		off:    uint32(off),
		n:      uint32(len(enc)),
	})
	if a.budget > 0 && a.resident > a.budget {
		return a.flush()
	}
	return nil
}

// tail returns the segment of list the next need bytes go to: the last
// one while it is resident and has room, otherwise a fresh one. Fresh
// segments start at arenaMinSegBytes and double up to arenaSegBytes, so a
// small run does not allocate (and zero) whole segments; a smaller budget
// caps them, since a segment is sealed and spilled once it passes the
// budget; an oversized encoding gets a segment of exactly its size.
func (a *stateArena) tail(list *[]arenaSeg, need int) *arenaSeg {
	segs := *list
	if n := len(segs); n > 0 && !segs[n-1].spilled && segs[n-1].size+need <= cap(segs[n-1].buf) {
		return &segs[n-1]
	}
	c := min(int64(arenaMinSegBytes)<<min(len(segs), 16), arenaSegBytes)
	if a.budget > 0 {
		c = min(c, a.budget)
	}
	*list = append(segs, arenaSeg{buf: make([]byte, 0, max(int(c), need))})
	return &(*list)[len(*list)-1]
}

// addEdge appends one graph edge as a fixed-width record. Edge bytes count
// against the same resident budget as encodings and spill with them.
func (a *stateArena) addEdge(from int, act uint16, to int) error {
	seg := a.tail(&a.edgeSegs, arenaEdgeBytes)
	var rec [arenaEdgeBytes]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(from))
	binary.LittleEndian.PutUint16(rec[4:6], act)
	binary.LittleEndian.PutUint32(rec[6:10], uint32(to))
	seg.buf = append(seg.buf, rec[:]...)
	seg.size += arenaEdgeBytes
	a.resident += arenaEdgeBytes
	a.edgeCount++
	if from < a.lastFrom {
		a.edgesMono = false
	} else {
		a.lastFrom = from
	}
	if a.budget > 0 && a.resident > a.budget {
		return a.flush()
	}
	return nil
}

// forEachEdge streams every recorded edge, in append order, to fn. Resident
// segments are read in place; spilled segments are read back from the spill
// file one whole segment (≤ arenaSegBytes) at a time. fn returning an error
// stops the walk.
func (a *stateArena) forEachEdge(fn func(from int, act uint16, to int) error) error {
	var buf []byte
	for i := range a.edgeSegs {
		seg := &a.edgeSegs[i]
		var b []byte
		if seg.spilled {
			var err error
			if buf, err = a.edgeSegBytes(i, buf[:0]); err != nil {
				return err
			}
			b = buf
		} else {
			b = seg.buf[:seg.size]
		}
		for off := 0; off+arenaEdgeBytes <= len(b); off += arenaEdgeBytes {
			from := int(binary.LittleEndian.Uint32(b[off : off+4]))
			act := binary.LittleEndian.Uint16(b[off+4 : off+6])
			to := int(binary.LittleEndian.Uint32(b[off+6 : off+10]))
			if err := fn(from, act, to); err != nil {
				return err
			}
		}
	}
	return nil
}

// edgeSegBytes appends the full byte run of edge segment i to buf — the
// edge-list analogue of segBytes, used by forEachEdge and checkpointing.
func (a *stateArena) edgeSegBytes(i int, buf []byte) ([]byte, error) {
	seg := &a.edgeSegs[i]
	if !seg.spilled {
		return append(buf, seg.buf[:seg.size]...), nil
	}
	lo := len(buf)
	if cap(buf) < lo+seg.size {
		grown := make([]byte, lo, lo+seg.size)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:lo+seg.size]
	err := a.em.retry("arena", func() error {
		_, rerr := a.file.ReadAt(buf[lo:], seg.fileOff)
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("tla: reading spilled arena edge segment: %w", err)
	}
	return buf, nil
}

// flush spills every resident segment — including the current one, which
// is sealed by the act of spilling — to the arena's temp file and drops
// the buffers. Encodings are append-only and never rewritten, so a
// segment's bytes are written exactly once; a failed write retries at the
// same file offset, so a torn attempt is simply overwritten.
//
// Spilling is memory relief, not correctness: on a persistent write
// failure (ENOSPC at the seal) the arena degrades to retaining segments in
// memory — over budget, reported via Result.DegradedMemory — instead of
// failing the run. Spilled reads stay valid: fileSize only advances past
// fully written segments.
func (a *stateArena) flush() error {
	if a.degraded {
		return nil
	}
	if a.file == nil {
		err := a.em.retry("arena", func() error {
			f, err := a.fsys.CreateTemp("", "tla-arena-")
			if err != nil {
				return err
			}
			a.file = f
			return nil
		})
		if err != nil {
			a.degraded = true
			a.em.onDegrade("arena")
			return nil
		}
	}
	for _, list := range [][]arenaSeg{a.segs, a.edgeSegs} {
		for i := range list {
			seg := &list[i]
			if seg.spilled {
				continue
			}
			err := a.em.retry("arena", func() error {
				_, werr := a.file.WriteAt(seg.buf[:seg.size], a.fileSize)
				return werr
			})
			if err != nil {
				a.degraded = true
				a.em.onDegrade("arena")
				return nil
			}
			seg.fileOff = a.fileSize
			a.fileSize += int64(seg.size)
			seg.buf = nil
			seg.spilled = true
			a.resident -= int64(seg.size)
			a.em.onArenaSpill(int64(seg.size))
		}
	}
	return nil
}

// degradedMemory reports whether a persistent spill failure forced the
// arena to retain segments in memory (Result.DegradedMemory).
func (a *stateArena) degradedMemory() bool { return a.degraded }

// residentBytes reports the encoding and edge bytes currently held in
// memory — the arena's half of Progress.ResidentBytes. Owner goroutine
// only, like add/flush.
func (a *stateArena) residentBytes() int64 { return a.resident }

// encoding appends state id's canonical encoding to buf and returns the
// extended slice — always a copy, never an alias of a resident segment,
// so callers may reuse one buffer across reads without risking a later
// read scribbling over live arena bytes.
func (a *stateArena) encoding(id int, buf []byte) ([]byte, error) {
	m := a.meta[id]
	seg := &a.segs[m.seg]
	if !seg.spilled {
		return append(buf, seg.buf[m.off:m.off+m.n]...), nil
	}
	lo := len(buf)
	if cap(buf) < lo+int(m.n) {
		grown := make([]byte, lo, lo+int(m.n))
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:lo+int(m.n)]
	// A spilled encoding is required reading — traces and checkpoints are
	// built from it — so transient errors retry and persistent ones fail
	// explicitly rather than risk a wrong answer.
	err := a.em.retry("arena", func() error {
		_, rerr := a.file.ReadAt(buf[lo:], seg.fileOff+int64(m.off))
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("tla: reading spilled arena segment: %w", err)
	}
	return buf, nil
}

// segBytes appends the full byte run of segment i to buf — from memory for
// resident segments, from the spill file otherwise. Checkpointing uses it
// to stream the arena's encodings out in segment order.
func (a *stateArena) segBytes(i int, buf []byte) ([]byte, error) {
	seg := &a.segs[i]
	if !seg.spilled {
		return append(buf, seg.buf[:seg.size]...), nil
	}
	lo := len(buf)
	if cap(buf) < lo+seg.size {
		grown := make([]byte, lo, lo+seg.size)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:lo+seg.size]
	err := a.em.retry("arena", func() error {
		_, rerr := a.file.ReadAt(buf[lo:], seg.fileOff)
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("tla: reading spilled arena segment: %w", err)
	}
	return buf, nil
}

// close releases the spill file, if any.
func (a *stateArena) close() error {
	if a.file == nil {
		return nil
	}
	f := a.file
	a.file = nil
	name := f.Name()
	f.Close()
	return a.fsys.Remove(name)
}

// retainer owns discovered-state retention for one checking run: the
// arena of plain encodings and parent links, plus the interned action names
// its records index. The live values of states awaiting expansion travel
// with the frontier (levelFrontier), not here.
type retainer[S State] struct {
	arena  *stateArena
	acts   []string // interned action names; acts[0] is the initial-state ""
	actIdx map[string]uint16

	// graphOwned marks that Result.Graph serves from the arena: the graph,
	// not the retainer, then owns the arena's spill file, and Graph.Close
	// releases it instead of retainer.close.
	graphOwned bool
}

func newRetainer[S State](spec *Spec[S], opts Options, em *engineMetrics) *retainer[S] {
	r := &retainer[S]{
		arena:  newArena(opts.MemoryBudgetBytes, opts.FS, em),
		acts:   []string{""},
		actIdx: map[string]uint16{"": 0},
	}
	r.arena.recordEdges = opts.RecordGraph
	for _, a := range spec.Actions {
		if _, ok := r.actIdx[a.Name]; !ok {
			r.actIdx[a.Name] = uint16(len(r.acts))
			r.acts = append(r.acts, a.Name)
		}
	}
	return r
}

func (r *retainer[S]) len() int { return r.arena.len() }

// add records one newly discovered state. enc must be the state's plain
// encoding — codec.encode, not the orbit-canonical form — and is copied.
func (r *retainer[S]) add(enc []byte, parent int, act string, depth int) error {
	return r.arena.add(enc, parent, r.actIdx[act], depth)
}

// addEdge records one graph edge into the arena's edge segments.
func (r *retainer[S]) addEdge(from int, act string, to int) error {
	return r.arena.addEdge(from, r.actIdx[act], to)
}

func (r *retainer[S]) depthOf(id int) int { return int(r.arena.meta[id].depth) }

// state reconstructs state id from the arena. With a bound decoder the
// stored encoding is decoded directly. Otherwise the state is replayed:
// its parent is reconstructed first, the recorded action is re-executed,
// and the successor whose plain encoding equals the stored bytes is the
// state (initial states match against Init). Either way the result is
// exactly the state explored (see the file comment). cache, when non-nil,
// memoizes every reconstructed state, so callers walking many states with
// shared ancestors pay each replay once. cod must be a codec no expansion
// worker is using — the merge goroutine's, or any codec after the workers
// joined.
func (r *retainer[S]) state(spec *Spec[S], cod *codec[S], id int, cache map[int]S) (S, error) {
	var zero S
	if s, ok := cache[id]; ok {
		return s, nil
	}
	enc, err := r.arena.encoding(id, nil)
	if err != nil {
		return zero, err
	}
	if cod.dec != nil {
		s, err := cod.dec(enc)
		if err != nil {
			return zero, fmt.Errorf("tla: arena decode: state %d: %w", id, err)
		}
		if cache != nil {
			cache[id] = s
		}
		return s, nil
	}
	m := r.arena.meta[id]
	if int(m.act) >= len(r.acts) {
		return zero, fmt.Errorf("tla: arena replay: state %d records unknown action index %d", id, m.act)
	}
	var cand []byte
	match := func(succs []S) (S, bool) {
		for _, s := range succs {
			if cand = cod.encode(s, cand[:0]); bytes.Equal(cand, enc) {
				if cache != nil {
					cache[id] = s
				}
				return s, true
			}
		}
		return zero, false
	}
	if m.parent < 0 {
		if s, ok := match(spec.Init()); ok {
			return s, nil
		}
		return zero, fmt.Errorf("tla: arena replay: no initial state matches the stored encoding of state %d", id)
	}
	parent, err := r.state(spec, cod, int(m.parent), cache)
	if err != nil {
		return zero, err
	}
	actName := r.acts[m.act]
	for _, a := range spec.Actions {
		if a.Name != actName {
			continue
		}
		if s, ok := match(a.Next(parent)); ok {
			return s, nil
		}
	}
	return zero, fmt.Errorf("tla: arena replay: no %s-successor matches the stored encoding of state %d", actName, id)
}

// trace reconstructs the initial-state-to-id trace and its action labels,
// one state reconstruction per step of the parent chain.
func (r *retainer[S]) trace(spec *Spec[S], cod *codec[S], id int) ([]S, []string, error) {
	var rev []int
	for i := id; i >= 0; i = int(r.arena.meta[i].parent) {
		rev = append(rev, i)
	}
	cache := make(map[int]S, len(rev))
	trace := make([]S, 0, len(rev))
	acts := make([]string, 0, len(rev)-1)
	for i := len(rev) - 1; i >= 0; i-- {
		s, err := r.state(spec, cod, rev[i], cache)
		if err != nil {
			return nil, nil, err
		}
		if i < len(rev)-1 {
			acts = append(acts, r.acts[r.arena.meta[rev[i]].act])
		}
		trace = append(trace, s)
	}
	return trace, acts, nil
}

// close releases the arena's spill file, if any — unless the arena now
// backs Result.Graph, whose Close owns that release.
func (r *retainer[S]) close() error {
	if r.graphOwned {
		return nil
	}
	return r.arena.close()
}
