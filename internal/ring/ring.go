// Package ring implements FaRM's ring buffers (§3): FIFO queues physically
// located in the receiver's non-volatile memory, appended to by the sender
// with one-sided RDMA writes acknowledged by the NIC, polled by the
// receiver, and truncated lazily. They serve as both transaction logs and
// message queues; each sender–receiver pair has its own ring.
//
// Space management follows §4: senders make reservations before starting a
// commit so every record needed to commit and truncate a transaction is
// guaranteed to fit, because the receiver's CPU is not involved and cannot
// push back.
//
// Frame format (all sizes multiples of 16):
//
//	[u32 payload length][u32 magic][u64 psn][payload][padding to 16]
//
// A frame lands atomically (one RDMA write), so a valid magic implies a
// complete frame. A wrap marker (magic wrapMagic) tells the reader to skip
// to offset 0. Truncated frames are zeroed so the reader never misparses
// stale bytes after the buffer wraps.
//
// The psn (packet sequence number) plays the role of RC transport
// sequencing: the writer stamps frames with a per-ring counter and the
// reader accepts a frame only when its psn is the next expected, exactly
// like an RDMA NIC dropping duplicate PSNs. This makes sender-side
// retransmission safe — a retry of a frame whose first landing was already
// processed (only the completion was lost) parses as a stale duplicate and
// is zeroed instead of being applied twice.
//
// Completions come in psn order, as on an RC queue pair: frames land and
// are acked out of order (wire jitter, retries in place), and the writer
// runs a frame's callback only after every earlier frame's, so an ack means
// the reader can parse the frame and all before it. A frame that fails for
// good fails every later frame too, like a queue pair in its error state.
package ring

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"farm/internal/fabric"
	"farm/internal/nvram"
	"farm/internal/pool"
	"farm/internal/sim"
)

const (
	frameMagic  = 0xFA12FA12
	wrapMagic   = 0xFA12FFFF
	headerBytes = 16
)

func pad16(n int) int { return (n + 15) &^ 15 }

// FrameBytes returns the ring space consumed by a payload of n bytes —
// what a reservation for that payload must cover.
func FrameBytes(n int) int { return headerBytes + pad16(n) }

// Writer is the sender half of a ring. It tracks the tail and free space
// locally; the receiver's consumption is learned asynchronously through
// UpdateConsumed (lazy truncation updates, typically piggybacked).
type Writer struct {
	nic      *fabric.NIC
	dst      fabric.MachineID
	region   nvram.RegionID
	capacity int

	tail     int
	appended uint64 // total bytes ever appended (frames + wrap padding)
	consumed uint64 // total bytes the receiver reported truncated
	reserved int    // bytes promised to reservations not yet written
	psn      uint64 // next frame's packet sequence number
	closed   bool   // Close() called: no further writes, retries or callbacks
	err      error  // the final failure a callback got: every later one gets it

	queue    []*writeOp // issued frames whose callbacks have not run, in psn order
	parked   int        // frames at the queue's end waiting for the receiver to free space
	draining bool       // settle's loop is running
	cur      *writeOp   // the frame opened by Begin and not yet issued by Commit
	// ops recycles writeOps — and the frame buffers they own — so an
	// append allocates nothing in steady state. The pool is bounded by the
	// number of frames whose callbacks have not run.
	ops pool.Free[writeOp]
}

// Retransmission of timed-out frame writes. A frame that timed out during
// a transient fault (one-way cut, flap) leaves a hole the reader's parse()
// stalls at — everything behind it is invisible, and its callbacks wait,
// until the hole is filled. Two guards make re-writing the same frame at the
// same offset safe: the reader's psn check discards a retry whose first
// landing was already processed (only the completion leg was lost), and a
// retry is cancelled — counted as delivered — once the receiver's
// truncation watermark passes the frame, since truncation implies
// processing and the slot may by then hold a newer frame the retry must not
// clobber. The retry span (~130 ms with these constants) comfortably
// outlives nemesis fault episodes; at a destination that is genuinely dead
// every attempt fails, and the final error fails every later frame too.
const (
	writeRetries    = 7
	writeRetryDelay = sim.Millisecond // doubles per attempt: ~127 ms total span
)

// writeOp is one frame's write-and-retry state machine. frame is the
// sender's only copy of the bytes (the fabric copies them at every issue),
// kept until the final ack because a retry re-sends it; the op, buffer
// included, goes back to the pool when its callback runs. ackFn/retryFn
// are bound once when the op is first allocated.
type writeOp struct {
	w       *Writer
	off     int
	frame   []byte
	end     uint64 // w.appended after this frame
	attempt int
	cb      func(error)
	done    bool // settled, with err
	parked  bool // not sent yet: it would land on bytes not yet truncated
	err     error

	ackFn   func(error)
	retryFn func()
}

func (w *Writer) getOp(size int) *writeOp {
	op := w.ops.Get()
	if cap(op.frame) < size {
		op.frame = make([]byte, size)
	}
	op.frame = op.frame[:size]
	return op
}

// NewWriter creates the sender side of the ring stored in (dst, region)
// with the given byte capacity. Capacity must be a multiple of 8 and large
// enough for at least one maximal frame.
func NewWriter(nic *fabric.NIC, dst fabric.MachineID, region nvram.RegionID, capacity int) *Writer {
	if capacity%16 != 0 || capacity < 64 {
		panic(fmt.Sprintf("ring: bad capacity %d", capacity))
	}
	w := &Writer{nic: nic, dst: dst, region: region, capacity: capacity}
	w.ops.New = func() *writeOp {
		op := &writeOp{w: w}
		op.ackFn = op.ack
		op.retryFn = op.issue
		return op
	}
	return w
}

// free returns bytes available for new frames, keeping one header of slack
// for a possible wrap marker.
func (w *Writer) free() int {
	used := int(w.appended - w.consumed)
	return w.capacity - used - w.reserved - headerBytes
}

// Reserve sets aside space for a future payload of n bytes. It returns
// false if the ring cannot currently guarantee the space; the caller must
// then back off (FaRM coordinators retry or force explicit truncation).
func (w *Writer) Reserve(n int) bool {
	need := FrameBytes(n)
	if need > w.free() {
		return false
	}
	w.reserved += need
	return true
}

// Release returns an unused reservation for a payload of n bytes (e.g. a
// truncation record whose ids were piggybacked instead).
func (w *Writer) Release(n int) {
	w.reserved -= FrameBytes(n)
	if w.reserved < 0 {
		panic("ring: reservation underflow")
	}
}

// Begin opens a frame for an n-byte payload and returns the payload's
// place inside the frame buffer for the caller to encode into directly;
// Commit then issues the frame. reservedSize >= n must name a prior
// Reserve(reservedSize); pass -1 for unreserved appends, which fail
// (return false, nothing opened) when space is insufficient. A reserved
// frame always opens, but its reservation does not cover the padding of a
// wrap: a frame that would then land on bytes the receiver has not
// truncated is held back until UpdateConsumed reports them free.
func (w *Writer) Begin(n, reservedSize int) ([]byte, bool) {
	if w.cur != nil {
		panic("ring: Begin with a frame already open")
	}
	need := FrameBytes(n)
	skip := 0 // wrap padding, if the frame does not fit before the end
	if w.tail+need > w.capacity {
		skip = w.capacity - w.tail
	}
	if reservedSize >= 0 {
		if n > reservedSize {
			panic(fmt.Sprintf("ring: payload %d exceeds reservation %d", n, reservedSize))
		}
		w.reserved -= FrameBytes(reservedSize)
		if w.reserved < 0 {
			panic("ring: append without matching reservation")
		}
	} else if skip+need > w.free() {
		return nil, false
	}
	if skip > 0 {
		w.writeWrapMarker()
	}
	op := w.getOp(need)
	binary.LittleEndian.PutUint32(op.frame, uint32(n))
	binary.LittleEndian.PutUint32(op.frame[4:], frameMagic)
	binary.LittleEndian.PutUint64(op.frame[8:], w.psn)
	w.psn++
	clear(op.frame[headerBytes+n:]) // a recycled buffer's stale padding
	op.off = w.tail
	w.tail = (w.tail + need) % w.capacity
	w.appended += uint64(need)
	op.end = w.appended
	w.cur = op
	return op.frame[headerBytes : headerBytes+n : headerBytes+n], true
}

// Commit issues the frame opened by Begin as one RDMA write. cb, if
// non-nil, receives the hardware ack (or error), after the callbacks of
// every frame issued before it.
func (w *Writer) Commit(cb func(error)) {
	op := w.cur
	w.cur = nil
	op.cb = cb
	w.start(op)
}

// Append writes payload as one frame: Begin, copy, Commit.
func (w *Writer) Append(payload []byte, reservedSize int, cb func(error)) bool {
	buf, ok := w.Begin(len(payload), reservedSize)
	if !ok {
		return false
	}
	copy(buf, payload)
	w.Commit(cb)
	return true
}

// start queues op behind every frame issued before it and issues it.
func (w *Writer) start(op *writeOp) {
	w.queue = append(w.queue, op)
	op.issue()
}

// issue sends the frame's RDMA write; ack retries timeouts in place with
// doubling backoff. Once the receiver's truncation watermark reaches
// op.end the frame was provably processed, so a pending retry reports
// success instead of firing (the slot may already hold a newer frame).
// Other errors (bad address = the ring is gone) and exhausted retries
// fail the frame for good. A frame whose bytes reach past the watermark's
// lap parks instead, and every later frame behind it.
func (op *writeOp) issue() {
	w := op.w
	switch {
	case w.closed:
	case w.err != nil:
		w.settle(op, w.err)
	case w.consumed >= op.end:
		w.settle(op, nil)
	case op.end > w.consumed+uint64(w.capacity):
		op.parked = true
		w.parked++
	default:
		w.nic.Write(w.dst, w.region, op.off, op.frame, op.ackFn)
	}
}

func (op *writeOp) ack(err error) {
	w := op.w
	switch {
	case w.closed:
	case err != nil && errors.Is(err, fabric.ErrTimeout) && op.attempt < writeRetries && w.err == nil:
		w.nic.Engine().After(writeRetryDelay<<op.attempt, op.retryFn)
		op.attempt++
	default:
		w.settle(op, err)
	}
}

// settle records op's outcome, then runs the callbacks of the settled
// frames at the head of the queue, in psn order (a callback that settles
// another frame leaves it to this loop). From the first final failure on,
// every callback gets that error, a parked frame's too. Each op is recycled
// before its callback runs (fabric's rule), so a callback that appends
// again may reuse it.
func (w *Writer) settle(op *writeOp, err error) {
	op.done, op.err = true, err
	if w.draining {
		return
	}
	w.draining = true
	for len(w.queue) > 0 && (w.queue[0].done || w.queue[0].parked && w.err != nil) && !w.closed {
		op := w.queue[0]
		w.queue = w.queue[:copy(w.queue, w.queue[1:])]
		if op.parked {
			op.parked = false
			w.parked--
		}
		if w.err == nil {
			w.err = op.err
		}
		cb := op.cb
		op.cb, op.done, op.err, op.attempt = nil, false, nil, 0
		w.ops.Put(op)
		if cb != nil {
			cb(w.err)
		}
	}
	w.draining = false
}

// Close permanently disables the writer: pending retries stop, further
// appends are dropped and no callback runs any more. Hosts close a writer
// when they replace it (ring re-establishment after a power cycle), so a
// stale writer's retries can never corrupt the re-created ring.
func (w *Writer) Close() { w.closed = true }

func (w *Writer) writeWrapMarker() {
	skip := w.capacity - w.tail
	op := w.getOp(headerBytes)
	binary.LittleEndian.PutUint32(op.frame, uint32(skip))
	binary.LittleEndian.PutUint32(op.frame[4:], wrapMagic)
	binary.LittleEndian.PutUint64(op.frame[8:], w.psn)
	w.psn++
	w.appended += uint64(skip)
	op.off, op.end = w.tail, w.appended
	w.tail = 0
	w.start(op)
}

// UpdateConsumed installs the receiver's cumulative truncation counter
// and sends the parked frames it makes room for. Values are monotonic;
// stale updates are ignored.
func (w *Writer) UpdateConsumed(total uint64) {
	if total <= w.consumed {
		return
	}
	w.consumed = total
	for w.parked > 0 && !w.closed {
		op := w.queue[len(w.queue)-w.parked]
		if op.end > w.consumed+uint64(w.capacity) {
			return
		}
		op.parked = false
		w.parked--
		op.issue()
	}
}

// Appended returns the cumulative appended byte counter (diagnostics).
func (w *Writer) Appended() uint64 { return w.appended }

// ConsumedEstimate returns the last truncation watermark the receiver
// reported (diagnostics).
func (w *Writer) ConsumedEstimate() uint64 { return w.consumed }

// ReservedBytes returns bytes promised to outstanding reservations
// (diagnostics).
func (w *Writer) ReservedBytes() int { return w.reserved }

// FreeBytes returns the space currently available for new frames.
func (w *Writer) FreeBytes() int { return w.free() }

// Frame is a received, still-untruncated log entry.
type Frame struct {
	// Seq is the frame's position in arrival order, unique per ring
	// (consecutive, wrap markers included).
	Seq uint64
	// Payload is the frame body. When it lies in one page of the ring's
	// memory it is in place: a capacity-capped view of the ring bytes, as a
	// receiver processes a record in its NVRAM log (§4). When it straddles
	// a page edge it is a copy the reader made at parse. Either way it is
	// valid until the frame is truncated — reclaim zeroes the ring bytes,
	// the writer wraps over them and the reader reuses its copy — so a
	// holder that outlives the frame (decoded log records alias it) takes a
	// copy of its own first.
	Payload []byte

	off    int
	size   int
	gone   bool
	copied bool // Payload is a copy from the reader's free list
}

// Reader is the receiver half: it parses frames out of the ring's pages,
// hands them to the host exactly once via Poll, retains them until
// Truncate, and zeroes their bytes when truncating a contiguous prefix.
// Pages the truncation leaves behind it reading all zero it gives up.
type Reader struct {
	mem      *Pages
	head     int // truncation head: first byte of first retained frame
	scan     int // parse head: next byte to parse
	nextSeq  uint64
	nextPSN  uint64   // next expected writer psn (duplicate drop)
	frames   []Frame  // retained (parsed, not yet reclaimed), in Seq order
	polled   int      // how many of frames were returned by Poll already
	consumed uint64   // cumulative truncated bytes (reported to writer)
	out      []Frame  // Poll's result, reused by the next Poll
	copies   [][]byte // free buffers for payloads that straddle a page edge
}

// NewReader reads a ring whose memory is mem, the caller's: one page that
// is never dropped. mem must be what NewWriter accepts as a capacity: a
// multiple of 16 bytes, at least 64.
func NewReader(mem []byte) *Reader {
	checkSize(len(mem))
	return NewPagedReader(&Pages{
		size: len(mem), pageSize: len(mem), pages: [][]byte{mem}, held: 1,
		spares: &Spares{}, pinned: true,
	})
}

// NewPagedReader reads the ring held in mem.
func NewPagedReader(mem *Pages) *Reader {
	checkSize(mem.size)
	return &Reader{mem: mem, copies: make([][]byte, 0, 4)}
}

// parse advances over newly landed frames. A frame whose psn is not the
// next expected is a stale retransmission resurrected in a reclaimed slot
// (its first landing was processed and truncated); it is zeroed — the RC
// duplicate drop — and the parser waits for the live frame to land there.
// It never reads past the oldest retained frame when that lies ahead: a
// writer's space accounting keeps frames clear of it, and bytes that claim
// otherwise must not reach — or zero — payloads already handed out. A
// header is 16-aligned, so it lies in one page; a page not held reads as
// zeros, so nothing has landed there.
func (r *Reader) parse() {
	r.sweep()
	ps := r.mem.pageSize
	for {
		if r.scan+headerBytes > r.mem.size {
			r.scan = 0
			continue
		}
		limit := r.mem.size
		if len(r.frames) > 0 && r.frames[0].off >= r.scan {
			limit = r.frames[0].off
		}
		if r.scan+headerBytes > limit {
			return // full
		}
		pg := r.mem.page(r.scan / ps)
		if pg == nil {
			return
		}
		hdr := pg[r.scan%ps:]
		length := binary.LittleEndian.Uint32(hdr)
		magic := binary.LittleEndian.Uint32(hdr[4:])
		psn := binary.LittleEndian.Uint64(hdr[8:])
		switch magic {
		case wrapMagic:
			if psn != r.nextPSN {
				r.zeroStale(headerBytes)
				return
			}
			// Wrap marker: account its span and restart at 0. It is
			// reclaimed like a frame, in order.
			r.frames = append(r.frames, Frame{Seq: r.nextSeq, off: r.scan, size: int(length), gone: true})
			r.nextSeq++
			r.nextPSN++
			r.scan = 0
		case frameMagic:
			size := headerBytes + pad16(int(length))
			if r.scan+size > limit {
				return // torn/garbage; wait
			}
			if psn != r.nextPSN {
				r.zeroStale(size)
				return
			}
			f := Frame{Seq: r.nextSeq, off: r.scan, size: size}
			f.Payload, f.copied = r.payload(hdr, r.scan+headerBytes, int(length))
			r.frames = append(r.frames, f)
			r.nextSeq++
			r.nextPSN++
			r.scan += size
		default:
			return // nothing (or not yet) here
		}
	}
}

// minCopy is the smallest buffer a straddling payload is copied into: most
// records fit, so any buffer the reader has serves the next straddler.
const minCopy = 1024

// payload returns the n payload bytes at offset at, behind the header hdr:
// in place when they lie in one page, which is made if a frame of zeros
// left it unheld; otherwise a copy in a buffer of the reader's free list,
// which gets it back at the frame's reclaim.
func (r *Reader) payload(hdr []byte, at, n int) ([]byte, bool) {
	if n == 0 {
		return hdr[headerBytes:headerBytes:headerBytes], false
	}
	ps := r.mem.pageSize
	if i, o := at/ps, at%ps; o+n <= r.mem.pageLen(i) {
		return r.mem.materialize(i)[o : o+n : o+n], false
	}
	var buf []byte
	for j := len(r.copies) - 1; j >= 0; j-- {
		if cap(r.copies[j]) >= n {
			buf = r.copies[j]
			r.copies[j] = r.copies[len(r.copies)-1]
			r.copies = r.copies[:len(r.copies)-1]
			break
		}
	}
	if buf == nil {
		buf = make([]byte, 0, max(minCopy, 1<<bits.Len(uint(n-1))))
	}
	buf = buf[:n]
	r.mem.ReadAt(buf, at)
	return buf, true
}

// zeroStale clears the stale frame of size bytes at the parse head.
func (r *Reader) zeroStale(size int) {
	r.mem.zero(r.scan, size)
	r.dropPages(r.scan, min(r.scan+size, r.mem.size))
}

// inWindow reports whether page i holds bytes of a retained frame: whether
// it overlaps [frames[0].off, scan), circularly, the whole ring when the
// two are equal.
func (r *Reader) inWindow(i int) bool {
	if len(r.frames) == 0 {
		return false
	}
	lo := i * r.mem.pageSize
	hi := lo + r.mem.pageLen(i)
	start := r.frames[0].off
	if start < r.scan {
		return lo < r.scan && start < hi
	}
	return start < hi || lo < r.scan
}

// dropPages drops every page overlapping [from, to) — circularly, the
// whole ring when the two are equal — that lies outside the window and
// reads all zero. A dropped page reads as exactly the zeros it held, and no
// payload handed out is in it, so parsing sees the same bytes as before.
func (r *Reader) dropPages(from, to int) {
	if r.mem.pinned || r.mem.pages == nil {
		return
	}
	ps, last := r.mem.pageSize, len(r.mem.pages)-1
	if from < to {
		r.dropRange(from/ps, (to-1)/ps)
	} else {
		r.dropRange(from/ps, last)
		if to > 0 {
			r.dropRange(0, (to-1)/ps)
		}
	}
}

func (r *Reader) dropRange(lo, hi int) {
	for i := lo; i <= hi; i++ {
		if pg := r.mem.pages[i]; pg != nil && !r.inWindow(i) && bytes.Equal(pg, zeroPage[:len(pg)]) {
			r.mem.drop(i)
		}
	}
}

// sweep looks at every page again after a write landed only zeros in a
// page held.
func (r *Reader) sweep() {
	if r.mem.zeroLanded {
		r.mem.zeroLanded = false
		r.dropPages(0, 0)
	}
}

// Poll returns frames that have landed since the last Poll, in order.
// Frames remain in the log (for recovery draining and voting) until
// truncated. The returned slice is reused by the next Poll; the Payloads
// it points at are valid until their frame's Truncate.
func (r *Reader) Poll() []Frame {
	r.parse()
	out := r.out[:0]
	for i := r.polled; i < len(r.frames); i++ {
		if !r.frames[i].gone { // skip wrap markers
			out = append(out, r.frames[i])
		}
	}
	r.polled = len(r.frames)
	r.out = out
	return out
}

// index returns the position in frames of sequence number seq, or
// len(frames) when it is not retained (Seqs are consecutive).
func (r *Reader) index(seq uint64) int {
	if len(r.frames) == 0 || seq < r.frames[0].Seq || seq-r.frames[0].Seq >= uint64(len(r.frames)) {
		return len(r.frames)
	}
	return int(seq - r.frames[0].Seq)
}

// RewindTo makes frames with sequence numbers >= seq eligible for Poll
// again. Receivers use it when the processing of a polled batch is lost
// (e.g. the process dies mid-batch with the frames still in the
// non-volatile log): the records must be handed out again rather than
// silently skipped.
func (r *Reader) RewindTo(seq uint64) {
	i := 0
	if len(r.frames) > 0 && seq > r.frames[0].Seq {
		i = r.index(seq)
	}
	if i < r.polled {
		r.polled = i
	}
}

// Pending returns every parsed-but-untruncated frame (the records a drain
// or recovery vote examines) in a slice of the caller's own.
func (r *Reader) Pending() []Frame {
	r.parse()
	r.polled = len(r.frames)
	var out []Frame
	for _, f := range r.frames {
		if !f.gone {
			out = append(out, f)
		}
	}
	return out
}

// Truncate marks the frame with the given sequence number reclaimable and
// reclaims the maximal contiguous prefix of reclaimable frames, zeroing
// their bytes. Out-of-order truncation is remembered and applied when the
// prefix catches up — mirroring FaRM's by-transaction truncation over a
// FIFO log.
func (r *Reader) Truncate(seq uint64) {
	if i := r.index(seq); i < len(r.frames) {
		r.frames[i].gone = true
	}
	r.reclaim()
}

func (r *Reader) reclaim() {
	i := 0
	for ; i < len(r.frames) && r.frames[i].gone; i++ {
		f := &r.frames[i]
		r.mem.zero(f.off, f.size)
		if f.copied {
			r.copies = append(r.copies, f.Payload[:0])
		}
		r.consumed += uint64(f.size)
		r.head = (f.off + f.size) % r.mem.size
	}
	if i > 0 {
		// Slide the survivors down so the backing array is reused instead
		// of creeping forward into a reallocation.
		from := r.frames[0].off
		n := copy(r.frames, r.frames[i:])
		clear(r.frames[n:])
		r.frames = r.frames[:n]
		r.polled = max(r.polled-i, 0)
		// The pages the window left behind.
		to := r.scan
		if n > 0 {
			to = r.frames[0].off
		}
		r.dropPages(from, to)
	}
	r.sweep()
}

// ConsumedBytes returns the cumulative truncated byte counter the receiver
// lazily reports to the writer.
func (r *Reader) ConsumedBytes() uint64 { return r.consumed }

// WindowPages returns how many pages of the ring's memory hold bytes of
// retained frames (diagnostics): the pages the reader keeps whatever they
// read, those overlapping [frames[0].off, scan) as inWindow counts them.
func (r *Reader) WindowPages() int {
	if len(r.frames) == 0 {
		return 0
	}
	ps, n := r.mem.pageSize, (r.mem.size+r.mem.pageSize-1)/r.mem.pageSize
	start := r.frames[0].off
	if start < r.scan {
		return (r.scan-1)/ps - start/ps + 1
	}
	spanned := n - start/ps
	if r.scan > 0 {
		spanned += (r.scan-1)/ps + 1
	}
	return min(n, spanned)
}

// Retained returns how many frames are currently held (diagnostics).
func (r *Reader) Retained() int {
	n := 0
	for i := range r.frames {
		if !r.frames[i].gone {
			n++
		}
	}
	return n
}
