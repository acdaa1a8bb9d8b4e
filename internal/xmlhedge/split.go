package xmlhedge

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"unsafe"

	"xpe/internal/hedge"
	"xpe/internal/metrics"
	"xpe/internal/trace"
)

// RecordOptions configures record splitting for streaming evaluation.
type RecordOptions struct {
	// Split names the record root element: every subtree rooted at an
	// element with this local name (outermost wins when they nest) is one
	// record. Empty means the default split: every child element of the
	// document element is a record. A named split also enables malformed-
	// record resynchronization (see RecordReader.Recover): the split name is
	// the delimiter the reader scans for when a record's markup is broken.
	Split string
	// MaxNodes bounds the node count of a single record (0 = unlimited);
	// exceeding it fails the record with a *LimitError (kind "nodes").
	MaxNodes int
	// MaxDepth bounds the element nesting depth within a record, counting
	// the record root as depth 1 (0 = unlimited).
	MaxDepth int
	// MaxBytes bounds the raw input bytes a single record may span (0 =
	// unlimited); exceeding it fails the record with a *LimitError (kind
	// "bytes"). The record is abandoned as soon as the budget is crossed,
	// so memory stays bounded even against a multi-gigabyte record.
	MaxBytes int64
	// MaxStreamBytes bounds total input consumption across the whole run
	// (0 = unlimited). Exceeding it is a stream-fatal *LimitError (kind
	// "stream"): no recovery is possible past an exhausted stream budget.
	MaxStreamBytes int64
	// KeepWhitespace retains whitespace-only text nodes (see Options).
	KeepWhitespace bool
	// Prefilter, when non-nil, is checked against each record before it is
	// built: a record whose element names satisfy none of its requirement
	// groups is skipped whole — tokenized, but no nodes built — and burns
	// its index and sibling slot like a failed record. Any other record
	// parses byte-identically to an unfiltered run (see prefilter.go).
	// Prefiltering is suspended in degraded (post-resync) mode.
	Prefilter *Prefilter
	// Ctx, when non-nil, is polled every few hundred decoder tokens, so a
	// cancellation interrupts the splitter even in the middle of a huge
	// record. The poll costs one counter increment per token.
	Ctx context.Context
	// Metrics, when non-nil, receives one flush of splitter counters per
	// record (records, nodes, bytes, arena reuse); the nil check is the
	// only cost when detached.
	Metrics *metrics.Split
	// Events, when non-nil, receives trace events: record boundaries and
	// the recovery activity of Recover (token skims, raw
	// resynchronizations, truncation). The stream pipeline drains the
	// sink per record; a nil sink costs one pointer test per would-be
	// event.
	Events *trace.EventSink
}

// LimitError reports a record (or the stream) exceeding a configured
// resource bound. Kinds "nodes", "depth", and "bytes" are record-scoped:
// the offending record is abandoned mid-parse to keep memory bounded, and
// Recover can skip past it. Kind "stream" (the MaxStreamBytes budget) is
// stream-fatal.
type LimitError struct {
	Kind   string // "nodes", "depth", "bytes", or "stream"
	Limit  int    // the configured bound
	Record int    // 0-based index of the offending record
	Path   hedge.Path
}

func (e *LimitError) Error() string {
	if e.Kind == "stream" {
		return fmt.Sprintf("xmlhedge: stream exceeds input budget of %d bytes", e.Limit)
	}
	return fmt.Sprintf("xmlhedge: record %d at %s exceeds %s limit %d",
		e.Record, e.Path, e.Kind, e.Limit)
}

// RecordParseError wraps a parse failure confined to one record with the
// record's identity, so error policies can attribute the failure and
// decide its fate. Unwrap exposes the underlying decoder error.
type RecordParseError struct {
	// Index is the 0-based index of the failing record.
	Index int
	// Path is the Dewey path of the record root within the input document.
	Path hedge.Path
	// Err is the underlying failure.
	Err error
}

func (e *RecordParseError) Error() string {
	return fmt.Sprintf("xmlhedge: record %d at %s: %v", e.Index, e.Path, e.Err)
}

func (e *RecordParseError) Unwrap() error { return e.Err }

// Arena bump-allocates hedge nodes in fixed-size chunks and recycles them
// across records: Reset rewinds the arena without freeing, and recycled
// element nodes keep their Children slice capacity, so a warm arena parses
// a record of familiar shape with no allocation. Chunking keeps previously
// handed-out node pointers stable while the arena grows.
//
// Beyond nodes, the arena carries everything else a record's parse would
// otherwise allocate: a text slab (node Text strings are views into it), an
// int slab (Dewey paths), and an element-name intern table that survives
// Reset. All of it shares the nodes' lifetime — valid until Reset.
type Arena struct {
	chunks [][]hedge.Node
	chunk  int // current chunk index
	used   int // nodes used in the current chunk

	// roots backs the one-element Hedge handed out per record. Append-only
	// between Resets so several live records parsed into the same arena
	// keep distinct roots; growth may reallocate, which leaves earlier
	// handed-out views pointing at the old backing array — still valid.
	roots []*hedge.Node

	// Text slab: decoded character data lives here and node Text strings
	// are unsafe views into it, so parsing text costs a copy, not an
	// allocation. Chunking keeps handed-out strings stable while it grows.
	textChunks [][]byte
	textChunk  int
	textUsed   int

	// Int slab, same discipline, for record Dewey paths.
	intChunks [][]int
	intChunk  int
	intUsed   int

	// names interns element names for the arena's lifetime (Reset keeps
	// it): a stream's names repeat, so a warm arena resolves them without
	// allocating. Capped so adversarially unique names cannot grow it
	// without bound.
	names map[string]string

	// reused / chunkAllocs are lifetime tallies (Reset keeps them): nodes
	// served from an already-allocated chunk vs. fresh chunk allocations.
	// Single-goroutine plain counters; readers flush deltas (see
	// RecordReader.Read).
	reused      int64
	chunkAllocs int64
}

const (
	arenaChunk     = 512
	arenaTextChunk = 1 << 14
	arenaIntChunk  = 256
	arenaMaxNames  = 4096
)

// Reset rewinds the arena; hedges, paths, and text strings parsed from it
// become invalid. The lifetime reuse tallies and the name intern table
// survive Reset.
func (a *Arena) Reset() {
	a.chunk, a.used = 0, 0
	a.roots = a.roots[:0]
	a.textChunk, a.textUsed = 0, 0
	a.intChunk, a.intUsed = 0, 0
}

// text copies b into the arena's text slab, returning it as a string valid
// until Reset. Oversized texts fall back to a plain allocation.
func (a *Arena) text(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > arenaTextChunk {
		return string(b)
	}
	if a.textChunk < len(a.textChunks) && len(b) > arenaTextChunk-a.textUsed {
		a.textChunk, a.textUsed = a.textChunk+1, 0
	}
	if a.textChunk == len(a.textChunks) {
		a.textChunks = append(a.textChunks, make([]byte, arenaTextChunk))
		a.textUsed = 0
	}
	dst := a.textChunks[a.textChunk][a.textUsed : a.textUsed+len(b)]
	a.textUsed += len(b)
	copy(dst, b)
	// The slab region is written exactly once and never moves (chunks are
	// append-only), so an unsafe no-copy string view is sound.
	return unsafe.String(&dst[0], len(dst))
}

// ints hands out an n-int slice from the arena's int slab, valid until
// Reset; oversized requests fall back to a plain allocation.
func (a *Arena) ints(n int) []int {
	if n == 0 {
		return nil
	}
	if n > arenaIntChunk {
		return make([]int, n)
	}
	if a.intChunk < len(a.intChunks) && n > arenaIntChunk-a.intUsed {
		a.intChunk, a.intUsed = a.intChunk+1, 0
	}
	if a.intChunk == len(a.intChunks) {
		a.intChunks = append(a.intChunks, make([]int, arenaIntChunk))
		a.intUsed = 0
	}
	s := a.intChunks[a.intChunk][a.intUsed : a.intUsed+n : a.intUsed+n]
	a.intUsed += n
	return s
}

// internName returns a stable string for an element name; unlike slab
// storage the interned string is independent of Reset.
func (a *Arena) internName(b []byte) string {
	if s, ok := a.names[string(b)]; ok {
		return s
	}
	if len(a.names) >= arenaMaxNames {
		return string(b)
	}
	if a.names == nil {
		a.names = make(map[string]string, 32)
	}
	s := string(b)
	a.names[s] = s
	return s
}

// Stats reports the arena's lifetime tallies: nodes served from recycled
// chunks and fresh chunk allocations.
func (a *Arena) Stats() (reused, chunkAllocs int64) { return a.reused, a.chunkAllocs }

func (a *Arena) node(kind hedge.NodeKind, name string) *hedge.Node {
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]hedge.Node, arenaChunk))
		a.chunkAllocs++
	} else {
		a.reused++
	}
	n := &a.chunks[a.chunk][a.used]
	a.used++
	if a.used == arenaChunk {
		a.chunk++
		a.used = 0
	}
	n.Kind, n.Name, n.Text = kind, name, ""
	n.Children = n.Children[:0]
	return n
}

// Record is one streamed record: a single-tree hedge plus its position in
// the enclosing document.
type Record struct {
	// Index is the 0-based record sequence number. Failed records consume
	// an index too, so skipping one leaves a gap rather than renumbering
	// its successors.
	Index int
	// Path is the Dewey path of the record root within the input document.
	// After a malformed-record resynchronization the document structure is
	// no longer fully known; paths then keep counting siblings from the
	// last verified prefix (best-effort addressing, monotone per record).
	// When the record was read into an Arena the path is arena-backed,
	// valid only until that arena is Reset (like Hedge).
	Path hedge.Path
	// Nodes is the node count of the record subtree.
	Nodes int
	// Hedge is the record subtree as a one-tree hedge. When the record was
	// read into an Arena it is valid only until that arena is Reset — node
	// storage, Text strings (views into the arena's text slab), and Path
	// alike.
	Hedge hedge.Hedge
	// Hint is the prefilter's per-group verdict for this record: bit i of
	// the word-slice bitset is set exactly when every label requirement
	// group i names is an element name of the record, so the group may
	// match (see Prefilter.verdict, Hint.Allows). When no verdict was computed —
	// prefilter off, record failed the skim, degraded mode — it is HintAll, so
	// evaluators must treat a set bit as "evaluate" and only a clear bit
	// as proof of non-matching.
	Hint Hint
}

// recKind classifies how a failed RecordReader can resume.
type recKind uint8

const (
	recSkim   recKind = iota + 1 // decoder alive: consume tokens to the record's end
	recResync                    // decoder dead: raw-scan for the next split-name start tag
	recEOF                       // truncated input: recovering ends the stream cleanly
)

// recovery is the pending recovery plan recorded at the moment a
// record-scoped failure is detected.
type recovery struct {
	kind  recKind
	opens int   // recSkim: open elements left to consume
	from  int64 // recResync: absolute offset to scan from
}

// RecordReader incrementally splits an XML document into records. It keeps
// only the record currently being parsed in memory, so streaming a
// multi-gigabyte document costs O(largest record), not O(document).
//
// Failures are contained per record where possible: limit violations and
// malformed markup inside one record leave the reader in a sticky error
// state from which Recover can resume at the next record (see Recover for
// the exact recoverability rules), which is what streaming Skip policies
// build on.
type RecordReader struct {
	tr   *tailReader
	tk   *tokenizer // nil only in degraded mode between records
	opts RecordOptions
	// rootDepth is where the default split finds its records: 1, the
	// children of the document element, or 0 when Parse reads each
	// top-level element, the document element itself, as one record.
	rootDepth int
	idx       int   // next record index
	idxs      []int // sibling index of each open outside-record element
	// counts[d] = children seen so far at depth d outside records
	// (counts[0] counts top-level nodes).
	counts []int
	stack  []*hedge.Node // readRecord's open-element stack, reused
	err    error         // sticky until Recover
	rec    *recovery     // pending recovery plan for the sticky error
	// degraded: a resynchronization happened; records are now located by
	// raw-scanning for the split name and parsed by per-record tokenizers.
	degraded bool
	degTk    *tokenizer // reused degraded-mode per-record tokenizer
	scanPos  int64      // degraded mode: absolute offset to scan from (tk == nil)
	polls    int        // tokens since the reader started; drives poll sampling
	// flushedBytes is the input offset already flushed to opts.Metrics.
	flushedBytes int64
	// prefiltered counts records skipped by the prefilter over the reader's
	// lifetime.
	prefiltered int64
	// hint is the prefilter verdict for the record about to be read: set by
	// tryPrefilter when a skim succeeded but kept the record, consumed by
	// readRecord via takeHint. Zero means "no verdict" (reads as HintAll).
	hint Hint
	// pfScratch holds the skim's reusable verdict bitsets.
	pfScratch verdictScratch
}

// NewRecordReader starts splitting r under the given options.
func NewRecordReader(r io.Reader, opts RecordOptions) *RecordReader {
	tr := newTailReader(r)
	return &RecordReader{tr: tr, tk: newTokenizer(tr), opts: opts, rootDepth: 1, counts: []int{0}}
}

// InputOffset returns the number of input bytes consumed so far.
func (rr *RecordReader) InputOffset() int64 {
	if rr.tk == nil {
		return rr.scanPos
	}
	return rr.tk.off()
}

// NextIndex returns the index the next record (or record failure) will be
// assigned.
func (rr *RecordReader) NextIndex() int { return rr.idx }

// Prefiltered returns how many records the prefilter has skipped so far.
func (rr *RecordReader) Prefiltered() int64 { return rr.prefiltered }

// takeHint consumes the pending prefilter verdict for the record being
// read. No verdict (prefilter off, aborted skim, degraded mode) reads as
// HintAll: every group may match.
func (rr *RecordReader) takeHint() Hint {
	h := rr.hint
	rr.hint = Hint{}
	if h.zero() {
		return HintAll
	}
	return h
}

// poll samples the cancellation and stream-budget checks once every 256
// tokens; the off-sample cost is one increment and mask.
func (rr *RecordReader) poll() error {
	rr.polls++
	if rr.polls&255 != 0 {
		return nil
	}
	return rr.pollNowAt(rr.InputOffset())
}

// pollNowAt applies the context and stream-budget checks against the given
// absolute input offset.
func (rr *RecordReader) pollNowAt(off int64) error {
	if ctx := rr.opts.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if mb := rr.opts.MaxStreamBytes; mb > 0 && off > mb {
		return &LimitError{Kind: "stream", Limit: int(mb), Record: rr.idx, Path: rr.nextPath()}
	}
	return nil
}

// nextPath is the Dewey path the next record root would get, plainly
// allocated (used on failure paths, where the path escapes into errors).
func (rr *RecordReader) nextPath() hedge.Path {
	depth := len(rr.idxs)
	return append(append(hedge.Path(nil), rr.idxs...), rr.counts[depth])
}

// nextPathIn is nextPath served from the arena's int slab: valid until the
// arena is Reset, like everything else in a record.
func (rr *RecordReader) nextPathIn(a *Arena) hedge.Path {
	if a == nil {
		return rr.nextPath()
	}
	depth := len(rr.idxs)
	p := a.ints(depth + 1)
	copy(p, rr.idxs)
	p[depth] = rr.counts[depth]
	return p
}

// clonePath copies an arena-backed path into plain storage, for errors
// that outlive the record's arena.
func clonePath(p hedge.Path) hedge.Path {
	return append(hedge.Path(nil), p...)
}

// resyncable reports whether a malformed record can be scanned past: that
// needs a named split (the delimiter to look for) short enough to fit the
// replay window.
func (rr *RecordReader) resyncable() bool {
	return rr.opts.Split != "" && len(rr.opts.Split) <= tailWindow-8
}

// Read returns the next record, parsed into arena a (a may be nil to
// allocate plainly). It returns io.EOF at a well-formed end of input; any
// other error is sticky: repeated Reads fail identically until Recover
// clears a recoverable failure.
func (rr *RecordReader) Read(a *Arena) (Record, error) {
	if rr.err != nil {
		return Record{}, rr.err
	}
	m := rr.opts.Metrics
	var reused0, allocs0 int64
	if m != nil && a != nil {
		reused0, allocs0 = a.Stats()
	}
	var rec Record
	var err error
	if err = rr.pollNowAt(rr.InputOffset()); err == nil {
		if rr.degraded {
			rec, err = rr.readDegraded(a)
		} else {
			rec, err = rr.read(a)
		}
	}
	if err != nil {
		rr.err = err
	}
	if m != nil {
		// Flush the bytes consumed since the last flush on every outcome
		// (EOF included), and the record counters on success only.
		if off := rr.InputOffset(); off > rr.flushedBytes {
			m.Bytes.Add(off - rr.flushedBytes)
			rr.flushedBytes = off
		}
		if err == nil {
			m.Records.Inc()
			m.Nodes.Add(int64(rec.Nodes))
			if a != nil {
				reused, allocs := a.Stats()
				m.ArenaNodesReused.Add(reused - reused0)
				m.ArenaChunkAllocs.Add(allocs - allocs0)
			}
		}
	}
	return rec, err
}

// CanRecover reports whether the sticky error is a record-scoped failure
// Recover can resume past. Stream-fatal conditions — reader I/O errors,
// cancellation, the stream byte budget, malformed markup with no named
// split to resynchronize on — report false.
func (rr *RecordReader) CanRecover() bool {
	return rr.err != nil && rr.err != io.EOF && rr.rec != nil
}

// Recover resumes reading past a record-scoped failure, consuming the
// failed record's index and sibling slot:
//
//   - after a limit violation (kinds "nodes", "depth", "bytes") the stream
//     is still well-formed, so the rest of the offending record is skimmed
//     token by token in O(1) memory;
//   - after malformed markup inside a record, a named split permits
//     byte-level resynchronization: the raw input is scanned (comment-,
//     CDATA-, and quote-aware) for the next split-name start tag and a
//     fresh decoder takes over from there. A malformation that swallows
//     the record's own terminator may cost the records it absorbed; the
//     scan resumes at the earliest plausible record start.
//   - after truncated input, recovering ends the stream cleanly (the next
//     Read returns io.EOF).
//
// Recover returns nil when reading can continue and the terminal error
// otherwise. Calling it with no sticky error (or at EOF) is a no-op.
func (rr *RecordReader) Recover() error {
	if rr.err == nil || rr.err == io.EOF {
		return nil
	}
	p := rr.rec
	rr.rec = nil
	if p == nil {
		return rr.err
	}
	switch p.kind {
	case recEOF:
		if s := rr.opts.Events; s.Enabled() {
			s.Emit("truncated", fmt.Sprintf("record %d: input truncated, stream ends", rr.idx))
		}
		rr.idx++
		rr.err = io.EOF
		return nil
	case recSkim:
		if s := rr.opts.Events; s.Enabled() {
			s.Emit("skim", fmt.Sprintf("record %d: skimming %d open element(s)", rr.idx, p.opens))
		}
		if err := rr.skim(p.opens); err != nil {
			var se *xml.SyntaxError
			if errors.As(err, &se) && rr.resyncable() {
				// The skim itself hit broken markup: fall back to a raw
				// resynchronization from where the skim died.
				rr.scanPos = rr.tk.off()
				return rr.enterDegraded()
			}
			rr.err = err
			return err
		}
		rr.consumeSlot()
		if rr.degraded {
			rr.scanPos = rr.tk.off()
			rr.tk = nil
		}
		rr.err = nil
		return nil
	case recResync:
		rr.scanPos = p.from
		return rr.enterDegraded()
	}
	return rr.err
}

// enterDegraded switches the reader to raw-scan record location, consuming
// the failed record's slot.
func (rr *RecordReader) enterDegraded() error {
	if s := rr.opts.Events; s.Enabled() {
		s.Emit("resync", fmt.Sprintf("record %d: raw scan for <%s from byte %d",
			rr.idx, rr.opts.Split, rr.scanPos))
	}
	rr.consumeSlot()
	rr.degraded = true
	rr.tk = nil
	rr.err = nil
	return nil
}

// consumeSlot burns the failed record's index and sibling position, so the
// numbering of its healthy successors is unaffected by the skip.
func (rr *RecordReader) consumeSlot() {
	rr.counts[len(rr.idxs)]++
	rr.idx++
}

// skim consumes tokens until the given number of open elements has closed,
// discarding everything: the O(1)-memory walk past an over-limit record.
func (rr *RecordReader) skim(opens int) error {
	for opens > 0 {
		if err := rr.poll(); err != nil {
			return err
		}
		if err := rr.tk.next(); err != nil {
			if err == io.EOF {
				return fmt.Errorf("xmlhedge: unexpected end of input while skipping a record")
			}
			return fmt.Errorf("xmlhedge: %w", err)
		}
		switch rr.tk.kind {
		case tokStart:
			opens++
		case tokEnd:
			opens--
		}
	}
	return nil
}

func (rr *RecordReader) read(a *Arena) (Record, error) {
	tk := rr.tk
	for {
		if err := rr.poll(); err != nil {
			return Record{}, err
		}
		startOff := tk.off()
		err := tk.next()
		if err == io.EOF {
			if len(rr.idxs) != 0 {
				// Defensive: the tokenizer reports EOF with open elements
				// as a syntax error, so this branch needs it lost its stack.
				rr.rec = &recovery{kind: recEOF}
				return Record{}, fmt.Errorf("xmlhedge: unexpected end of input at depth %d", len(rr.idxs))
			}
			return Record{}, io.EOF
		}
		if err != nil {
			return Record{}, rr.failOuter(err)
		}
		switch tk.kind {
		case tokStart:
			depth := len(rr.idxs)
			if rr.isRecordRoot(tk.name, depth) {
				if rr.opts.Prefilter != nil && rr.tryPrefilter(startOff) {
					continue
				}
				return rr.readRecord(a, startOff)
			}
			rr.idxs = append(rr.idxs, rr.counts[depth])
			rr.counts[depth]++
			rr.counts = append(rr.counts[:depth+1], 0)
		case tokEnd:
			// The tokenizer guarantees balance; this closes an
			// outside-record element.
			rr.idxs = rr.idxs[:len(rr.idxs)-1]
		case tokText:
			if rr.opts.textNode(tk.text) {
				if len(rr.idxs) == 0 {
					if isSpace(tk.text) {
						continue // prolog/epilog whitespace
					}
					if rr.resyncable() {
						rr.rec = &recovery{kind: recResync, from: tk.off()}
					}
					return Record{}, fmt.Errorf("xmlhedge: character data outside the document element")
				}
				// Text between records occupies a child slot, exactly as in
				// the whole-document parse.
				rr.counts[len(rr.idxs)]++
			}
		}
	}
}

// failOuter classifies a tokenizer failure between records: syntax errors
// can be resynced past when a named split provides the delimiter; I/O
// errors are stream-fatal.
func (rr *RecordReader) failOuter(err error) error {
	var se *xml.SyntaxError
	if errors.As(err, &se) && rr.resyncable() {
		rr.rec = &recovery{kind: recResync, from: rr.tk.off()}
	}
	return fmt.Errorf("xmlhedge: %w", err)
}

// readDegraded locates the next record by raw-scanning for the split name
// and parses it with a per-record tokenizer rewound to the hit.
func (rr *RecordReader) readDegraded(a *Arena) (Record, error) {
	pos, err := rr.scanForRecord()
	if err != nil {
		return Record{}, err // io.EOF, cancellation, or budget exhaustion
	}
	if s := rr.opts.Events; s.Enabled() {
		s.Emit("resync_hit", fmt.Sprintf("record start candidate at byte %d", pos))
	}
	if err := rr.tr.rewind(pos); err != nil {
		return Record{}, err
	}
	if rr.degTk == nil {
		rr.degTk = newTokenizer(rr.tr)
	} else {
		rr.degTk.reset()
	}
	rr.tk = rr.degTk
	if err := rr.tk.next(); err != nil {
		return Record{}, rr.failDegradedStart(err, pos)
	}
	if rr.tk.kind != tokStart {
		return Record{}, rr.failDegradedStart(fmt.Errorf("unexpected token at resync point"), pos)
	}
	rec, err := rr.readRecord(a, pos)
	if err != nil {
		return Record{}, err // rr.tk stays set: skim-based recovery needs it
	}
	rr.scanPos = rr.tk.off()
	rr.tk = nil
	return rec, nil
}

// failDegradedStart reports a resync candidate that failed to parse as a
// start tag; the scan resumes past it.
func (rr *RecordReader) failDegradedStart(err error, pos int64) error {
	from := rr.tk.off()
	if from <= pos {
		from = pos + 1
	}
	rr.rec = &recovery{kind: recResync, from: from}
	return &RecordParseError{Index: rr.idx, Path: rr.nextPath(),
		Err: fmt.Errorf("xmlhedge: %w", err)}
}

// isRecordRoot decides whether a start element outside any record begins a
// record: under the default split, any element at rootDepth; under a named
// split, any element with the split name.
func (rr *RecordReader) isRecordRoot(name []byte, depth int) bool {
	if rr.opts.Split == "" {
		return depth == rr.rootDepth
	}
	return string(name) == rr.opts.Split
}

// readRecord parses the record whose start tag the tokenizer just
// produced. startOff is the absolute input offset of the record's '<',
// anchoring the per-record byte budget.
func (rr *RecordReader) readRecord(a *Arena, startOff int64) (Record, error) {
	tk := rr.tk
	depth := len(rr.idxs)
	rec := Record{Index: rr.idx, Path: rr.nextPathIn(a), Hint: rr.takeHint()}
	if s := rr.opts.Events; s.Enabled() {
		s.Emit("record", fmt.Sprintf("record %d <%s> at byte %d", rec.Index, tk.name, startOff))
	}
	var root *hedge.Node
	if a == nil {
		root = &hedge.Node{Kind: hedge.Elem, Name: string(tk.name)}
	} else {
		root = a.node(hedge.Elem, a.internName(tk.name))
	}
	rec.Nodes = 1
	rr.stack = append(rr.stack[:0], root)
	for len(rr.stack) > 0 {
		if err := rr.poll(); err != nil {
			return Record{}, err
		}
		if mb := rr.opts.MaxBytes; mb > 0 && tk.off()-startOff > mb {
			return Record{}, rr.limitErr(&rec, "bytes", int(mb), len(rr.stack))
		}
		if err := tk.next(); err != nil {
			return Record{}, rr.failRecord(&rec, err)
		}
		switch tk.kind {
		case tokStart:
			if kind, limit := rr.opts.overLimit(true, len(rr.stack), rec.Nodes); kind != "" {
				return Record{}, rr.limitErr(&rec, kind, limit, len(rr.stack)+1)
			}
			rec.Nodes++
			var n *hedge.Node
			if a == nil {
				n = &hedge.Node{Kind: hedge.Elem, Name: string(tk.name)}
			} else {
				n = a.node(hedge.Elem, a.internName(tk.name))
			}
			parent := rr.stack[len(rr.stack)-1]
			parent.Children = append(parent.Children, n)
			rr.stack = append(rr.stack, n)
		case tokEnd:
			rr.stack = rr.stack[:len(rr.stack)-1]
		case tokText:
			if !rr.opts.textNode(tk.text) {
				continue
			}
			if kind, limit := rr.opts.overLimit(false, len(rr.stack), rec.Nodes); kind != "" {
				return Record{}, rr.limitErr(&rec, kind, limit, len(rr.stack))
			}
			rec.Nodes++
			var n *hedge.Node
			if a == nil {
				n = &hedge.Node{Kind: hedge.Var, Name: hedge.TextVar, Text: string(tk.text)}
			} else {
				n = a.node(hedge.Var, hedge.TextVar)
				n.Text = a.text(tk.text)
			}
			parent := rr.stack[len(rr.stack)-1]
			parent.Children = append(parent.Children, n)
		}
	}
	rr.counts[depth]++
	rr.idx++
	if a != nil {
		a.roots = append(a.roots, root)
		rec.Hedge = a.roots[len(a.roots)-1 : len(a.roots) : len(a.roots)]
	} else {
		rec.Hedge = hedge.Hedge{root}
	}
	return rec, nil
}

// overLimit names the per-record limit the node a token adds would break,
// given the record's open depth and node count so far: a start tag (elem)
// opens depth+1, and either kind adds one node. It returns "" when none.
func (o *RecordOptions) overLimit(elem bool, depth, nodes int) (kind string, limit int) {
	switch {
	case elem && o.MaxDepth > 0 && depth+1 > o.MaxDepth:
		return "depth", o.MaxDepth
	case o.MaxNodes > 0 && nodes+1 > o.MaxNodes:
		return "nodes", o.MaxNodes
	}
	return "", 0
}

// textNode reports whether character data inside a record becomes a text
// node: unless KeepWhitespace is set, whitespace-only runs are dropped.
func (o *RecordOptions) textNode(text []byte) bool {
	return o.KeepWhitespace || !isSpace(text)
}

// limitErr abandons the record over a resource bound, planning the token
// skim that skips the rest of it. The error's path is cloned out of the
// arena — errors outlive the record's storage.
func (rr *RecordReader) limitErr(rec *Record, kind string, limit, opens int) error {
	rr.rec = &recovery{kind: recSkim, opens: opens}
	return &LimitError{Kind: kind, Limit: limit, Record: rec.Index, Path: clonePath(rec.Path)}
}

// failRecord classifies a tokenizer failure inside a record: truncation
// surfaces as the tokenizer's "unexpected EOF" syntax error (resyncing
// when a named split allows it), exactly like the decoder's.
func (rr *RecordReader) failRecord(rec *Record, err error) error {
	if err == io.EOF {
		// Defensive: the tokenizer reports EOF inside an element as a
		// syntax error; a raw EOF here would mean it lost its stack.
		rr.rec = &recovery{kind: recEOF}
		err = fmt.Errorf("xmlhedge: unexpected end of input inside a record")
	} else {
		var se *xml.SyntaxError
		if errors.As(err, &se) && rr.resyncable() {
			rr.rec = &recovery{kind: recResync, from: rr.tk.off()}
		}
		err = fmt.Errorf("xmlhedge: %w", err)
	}
	return &RecordParseError{Index: rec.Index, Path: clonePath(rec.Path), Err: err}
}

// isSpace reports whether the character data is whitespace-only.
func isSpace(b []byte) bool {
	for _, c := range b {
		switch c {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}
