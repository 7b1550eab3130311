package ring

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"farm/internal/fabric"
	"farm/internal/nvram"
	"farm/internal/sim"
)

// frameAt lays a frame header (and, for a data frame, its payload) into mem
// at off, the way a writer's one-sided write lands it.
func frameAt(mem []byte, off int, magic uint32, psn uint64, payload []byte, length int) {
	binary.LittleEndian.PutUint32(mem[off:], uint32(length))
	binary.LittleEndian.PutUint32(mem[off+4:], magic)
	binary.LittleEndian.PutUint64(mem[off+8:], psn)
	copy(mem[off+headerBytes:], payload)
}

// FuzzReader hands a Reader arbitrary ring bytes and a sequence of Poll,
// Pending, Truncate and RewindTo calls, with more bytes landing between
// them. It runs two readers side by side on the same bytes and calls: the
// flat oracle (NewReader, the ring one page) and a paged reader whose pages
// are small enough that frames straddle them. Whatever the bytes, no call
// may panic or hang; the two readers agree at every step on their frames,
// Seqs, payload bytes at parse, ConsumedBytes and every ring byte (so on
// the spans they zero); the retained frames carry consecutive Seqs; a
// frame's payload is the ring bytes it was parsed from; Poll hands frames
// out in Seq order; a payload handed out in place — every payload of the
// flat reader, a paged reader's that lies in one page — equals its ring
// bytes at each later step until that frame's Truncate, whatever lands
// meanwhile, and a paged payload copied because it straddles a page edge
// equals the bytes parsed until then; and the bytes Truncate reclaims are
// zero. After each Poll, Pending and Truncate the paged reader holds a page
// only if it has a non-zero byte or lies across the window, and keeps no
// more spares than four per page held or one. NewReader refuses exactly the
// sizes NewWriter refuses.
func FuzzReader(f *testing.F) {
	valid := make([]byte, 256)
	frameAt(valid, 0, frameMagic, 0, []byte("first frame"), 11)
	frameAt(valid, 32, frameMagic, 1, []byte("second"), 6)
	frameAt(valid, 64, wrapMagic, 2, nil, 192)
	f.Add(valid, []byte{0, 0, 2, 0, 2, 1, 0, 0})
	f.Add(valid, []byte{0, 0, 4, 16, 0, 0}) // bytes land over a frame handed out
	stale := slices.Clone(valid)
	frameAt(stale, 32, frameMagic, 7, []byte("stale"), 5)
	f.Add(stale, []byte{1, 0, 3, 0, 2, 0, 0, 0})
	huge := make([]byte, 64)
	frameAt(huge, 0, wrapMagic, 0, nil, 1<<31)
	frameAt(huge, 16, frameMagic, 0, nil, 1<<30)
	f.Add(huge, []byte{0, 0, 2, 0, 4, 1, 0, 0})
	f.Add(make([]byte, 8), []byte{0, 0})
	straddle := make([]byte, 160)
	frameAt(straddle, 0, frameMagic, 0, []byte("spans two pages of 32 bytes"), 27)
	frameAt(straddle, 48, frameMagic, 1, []byte("in one"), 6)
	f.Add(straddle, []byte{0, 0, 4, 1, 0, 0, 2, 0, 2, 1, 0, 0}) // bytes land over a straddler handed out
	f.Fuzz(func(t *testing.T, ring, ops []byte) {
		if len(ring) > 4096 {
			ring = ring[:4096]
		}
		done := make(chan error, 1)
		go func() { done <- readerOps(ring, ops) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("reader calls did not return within 2 s")
		}
	})
}

// fuzzPage is the page size of the paged readers the fuzz targets run.
const fuzzPage = 32

// readerOps runs the operation sequence ops over a flat Reader of ring's
// bytes and a paged one, and reports the first broken promise.
func readerOps(ring, ops []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if bad := len(ring)%16 != 0 || len(ring) < 64; bad {
		refused := func() (refused bool) {
			defer func() { refused = recover() != nil }()
			NewReader(slices.Clone(ring))
			return false
		}()
		if !refused {
			return fmt.Errorf("NewReader took %d bytes", len(ring))
		}
	}
	mem := make([]byte, max(64, len(ring)&^15))
	copy(mem, ring)
	r := NewReader(mem)
	pm := newPages(len(mem), fuzzPage, &Spares{})
	pm.WriteAt(mem, 0)
	pr := NewPagedReader(pm)
	parsed := map[uint64][]byte{} // Seq → the ring bytes its payload was parsed from
	out := map[uint64]Frame{}     // frames handed out and not truncated since, by Seq
	pout := map[uint64]Frame{}    // the same, from the paged reader
	for i := 0; i+1 < len(ops); i += 2 {
		arg := int(ops[i+1])
		base := r.nextSeq
		if len(r.frames) > 0 {
			base = r.frames[0].Seq
		}
		before, kept := slices.Clone(mem), slices.Clone(r.frames)
		var polled, ppolled []Frame
		switch ops[i] % 5 {
		case 0:
			polled, ppolled = r.Poll(), pr.Poll()
		case 1:
			polled, ppolled = r.Pending(), pr.Pending()
		case 2:
			r.Truncate(base + uint64(arg%8))
			pr.Truncate(base + uint64(arg%8))
			delete(out, base+uint64(arg%8))
			delete(pout, base+uint64(arg%8))
		case 3:
			r.RewindTo(base + uint64(arg%8))
			pr.RewindTo(base + uint64(arg%8))
		case 4: // more bytes land
			at := arg * 16 % len(mem)
			n := copy(mem[at:], ring[min(arg, len(ring)):])
			pm.WriteAt(mem[at:at+n], at)
		}
		if err := sameReaders(r, pr, mem); err != nil {
			return fmt.Errorf("op %d: %v", i/2, err)
		}
		if ops[i]%5 <= 2 {
			if err := pagesFollowTheWindow(pr); err != nil {
				return fmt.Errorf("op %d: %v", i/2, err)
			}
		}
		for j, fr := range r.frames {
			if fr.Seq != r.frames[0].Seq+uint64(j) || fr.Seq >= r.nextSeq {
				return fmt.Errorf("op %d: frame %d has Seq %d after %d (next %d)", i/2, j, fr.Seq, r.frames[0].Seq, r.nextSeq)
			}
		}
		if len(r.frames) > 0 && r.frames[len(r.frames)-1].Seq != r.nextSeq-1 {
			return fmt.Errorf("op %d: last frame %d, next Seq %d", i/2, r.frames[len(r.frames)-1].Seq, r.nextSeq)
		}
		for j, fr := range r.frames {
			if _, seen := parsed[fr.Seq]; seen || fr.gone {
				continue
			}
			at := fr.off + headerBytes
			if at+len(fr.Payload) > len(before) || !bytes.Equal(fr.Payload, before[at:at+len(fr.Payload)]) {
				return fmt.Errorf("op %d: frame %d at %d parsed as %x, not its ring bytes", i/2, fr.Seq, fr.off, fr.Payload)
			}
			if !bytes.Equal(pr.frames[j].Payload, fr.Payload) {
				return fmt.Errorf("op %d: frame %d parsed as %x by the paged reader, %x by the flat one", i/2, fr.Seq, pr.frames[j].Payload, fr.Payload)
			}
			parsed[fr.Seq] = slices.Clone(fr.Payload)
		}
		if len(polled) != len(ppolled) {
			return fmt.Errorf("op %d: the flat reader handed out %d frames, the paged one %d", i/2, len(polled), len(ppolled))
		}
		for j, fr := range polled {
			if j > 0 && fr.Seq <= polled[j-1].Seq {
				return fmt.Errorf("op %d: handed out Seq %d after %d", i/2, fr.Seq, polled[j-1].Seq)
			}
			if at := fr.off + headerBytes; !bytes.Equal(fr.Payload, mem[at:at+len(fr.Payload)]) {
				return fmt.Errorf("op %d: handed out frame %d as %x, its ring bytes read %x", i/2, fr.Seq, fr.Payload, mem[at:at+len(fr.Payload)])
			}
			if ppolled[j].Seq != fr.Seq {
				return fmt.Errorf("op %d: the paged reader handed out Seq %d where the flat one did %d", i/2, ppolled[j].Seq, fr.Seq)
			}
			out[fr.Seq], pout[fr.Seq] = fr, ppolled[j]
		}
		for seq, fr := range out {
			at := fr.off + headerBytes
			if !bytes.Equal(fr.Payload, mem[at:at+len(fr.Payload)]) {
				return fmt.Errorf("op %d: frame %d handed out as %x, its ring bytes read %x", i/2, seq, fr.Payload, mem[at:at+len(fr.Payload)])
			}
		}
		for seq, fr := range pout {
			want := parsed[seq]
			if at := fr.off + headerBytes; !fr.copied {
				want = mem[at : at+len(fr.Payload)]
			}
			if !bytes.Equal(fr.Payload, want) {
				return fmt.Errorf("op %d: the paged reader handed out frame %d (copied %v) as %x, want %x", i/2, seq, fr.copied, fr.Payload, want)
			}
		}
		for _, fr := range kept {
			if len(r.frames) > 0 && fr.Seq >= r.frames[0].Seq {
				break
			}
			if end := min(fr.off+fr.size, len(mem)); slices.ContainsFunc(mem[fr.off:end], func(b byte) bool { return b != 0 }) {
				return fmt.Errorf("op %d: reclaimed frame %d left bytes in [%d, %d)", i/2, fr.Seq, fr.off, end)
			}
		}
	}
	return nil
}

// sameReaders reports the first difference between the flat reader r over
// mem and the paged reader pr: in their frames (payloads aside: a copy
// keeps the bytes parsed), parse and truncation state, and ring bytes.
func sameReaders(r, pr *Reader, mem []byte) error {
	if len(r.frames) != len(pr.frames) {
		return fmt.Errorf("the flat reader retains %d frames, the paged one %d", len(r.frames), len(pr.frames))
	}
	for j, fr := range r.frames {
		g := pr.frames[j]
		if fr.Seq != g.Seq || fr.off != g.off || fr.size != g.size || fr.gone != g.gone || len(fr.Payload) != len(g.Payload) {
			return fmt.Errorf("frame %d: flat %+v, paged %+v", j, fr, g)
		}
	}
	if r.scan != pr.scan || r.nextSeq != pr.nextSeq || r.nextPSN != pr.nextPSN || r.polled != pr.polled || r.ConsumedBytes() != pr.ConsumedBytes() {
		return fmt.Errorf("flat scan %d seq %d psn %d polled %d consumed %d, paged %d %d %d %d %d",
			r.scan, r.nextSeq, r.nextPSN, r.polled, r.ConsumedBytes(), pr.scan, pr.nextSeq, pr.nextPSN, pr.polled, pr.ConsumedBytes())
	}
	paged := make([]byte, len(mem))
	pr.mem.ReadAt(paged, 0)
	for j := range mem {
		if mem[j] != paged[j] {
			return fmt.Errorf("ring byte %d reads %#x flat, %#x paged", j, mem[j], paged[j])
		}
	}
	return nil
}

// pagesFollowTheWindow reports a page the paged reader r holds that reads
// all zero outside its window, a count of pages held that is not its
// table's, or more spares than four per page held or one: r's ring shares
// its spares with no other.
func pagesFollowTheWindow(r *Reader) error {
	m, n := r.mem, 0
	for i := range m.pages {
		if pg := m.pages[i]; pg != nil {
			n++
			if !r.inWindow(i) && !slices.ContainsFunc(pg, func(b byte) bool { return b != 0 }) {
				return fmt.Errorf("page %d is held, all zero, outside the window (%d frames, scan %d)", i, len(r.frames), r.scan)
			}
		}
	}
	if n != m.held || n != m.spares.held || len(m.spares.free) > max(1, 4*n) {
		return fmt.Errorf("%d pages held (%d by the spares' count), %d in the table, %d spares", m.held, m.spares.held, n, len(m.spares.free))
	}
	return nil
}

// FuzzWriter drives a Writer and a Reader over a two-machine fabric with a
// fuzzed schedule of reservations, appends (in the oldest reservation when
// the argument's top bit is set and one is held, unreserved otherwise),
// link cuts and heals (either direction: a cut of 1→0 loses only
// completions), polls, truncations, UpdateConsumed calls and spans of
// virtual time. The frames land in a paged ring whose pages they straddle,
// and a flat oracle reader (NewReader) reads a copy of every landing next to
// the paged one: the two must agree at every step on their frames, Seqs,
// payload bytes, ConsumedBytes and ring bytes, and after each poll and
// truncation the paged ring holds a page only if it has a non-zero byte or
// lies across the window. Callbacks must run in psn order, and after a
// final failure no later frame may be acked OK. A frame handed out keeps
// its payload until it is truncated. Once the links heal and the reader
// frees what it holds, every frame has had its callback, and the reader has
// handed out every frame acked OK, in order.
func FuzzWriter(f *testing.F) {
	f.Add([]byte{0, 8, 0, 40, 6, 1, 3, 0, 4, 0, 5, 0})
	f.Add([]byte{0, 8, 1, 0, 0, 16, 2, 0, 0, 24, 6, 2, 3, 0, 6, 60, 3, 0})                                   // a hole, filled
	f.Add([]byte{0, 8, 1, 1, 0, 16, 6, 30, 2, 1, 3, 0, 4, 0, 5, 0, 6, 40})                                   // lost completions
	f.Add([]byte{1, 0, 0, 8, 0, 16, 6, 255, 2, 0, 0, 24, 6, 4, 3, 0})                                        // retries exhausted
	f.Add([]byte{0, 48, 6, 48, 0, 48, 0, 48, 0, 48, 0, 48, 6, 48, 3, 48, 4, 48, 4, 48, 5, 48, 0, 48, 0, 57}) // a wrap's padding is ring space too
	f.Add([]byte("0Y00&000000070C00000$01000%0000\xae"))                                                     // so is a reserved frame's
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := writerOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// writerOps runs the schedule ops over a fresh writer and reader and
// reports the first broken promise. Frame k's payload starts with k.
func writerOps(ops []byte) error {
	eng := sim.NewEngine(1)
	net := fabric.NewNetwork(eng, fabric.Options{})
	store := nvram.NewStore()
	nic := net.AddMachine(0, nvram.NewStore())
	const capacity = 512
	pm, mem := newPages(capacity, 2*fuzzPage, &Spares{}), make([]byte, capacity)
	if err := store.AllocatePaged(100, pm); err != nil {
		return err
	}
	net.AddMachine(1, store).SetWriteHook(func(_ nvram.RegionID, off, length int) {
		pm.ReadAt(mem[off:off+length], off)
	})
	w, r, flat := NewWriter(nic, 1, 100, capacity), NewPagedReader(pm), NewReader(mem)
	var (
		issued    uint64   // frames appended
		completed []uint64 // frames whose callback ran, in that order
		okAcks    uint64   // callbacks with a nil error
		failed    bool     // a callback had an error
		sent      [][]byte // each frame's payload
		polled    []uint64 // frames the reader handed out, in that order
		kept      []Frame  // frames polled and not yet truncated
		keptK     []uint64 // the frame number each of them carries
		held      []int    // reservations not yet written, oldest first
		broken    error
	)
	poll := func() {
		fpolled, ppolled := flat.Poll(), r.Poll()
		if len(fpolled) != len(ppolled) && broken == nil {
			broken = fmt.Errorf("the flat reader handed out %d frames, the paged one %d", len(fpolled), len(ppolled))
		}
		for j, fr := range ppolled {
			if j < len(fpolled) && (fpolled[j].Seq != fr.Seq || !bytes.Equal(fpolled[j].Payload, fr.Payload)) && broken == nil {
				broken = fmt.Errorf("the paged reader handed out frame %d as %x, the flat one frame %d as %x",
					fr.Seq, fr.Payload, fpolled[j].Seq, fpolled[j].Payload)
			}
			k := binary.LittleEndian.Uint64(fr.Payload)
			if k >= uint64(len(sent)) || !bytes.Equal(fr.Payload, sent[k]) {
				if broken == nil {
					broken = fmt.Errorf("the reader handed out a frame reading %x", fr.Payload)
				}
				continue
			}
			polled = append(polled, k)
			kept, keptK = append(kept, fr), append(keptK, k)
		}
	}
	truncate := func(seq uint64) {
		r.Truncate(seq)
		flat.Truncate(seq)
	}
	// intact checks that every frame still retained holds its own payload.
	intact := func() error {
		for j, fr := range kept {
			if !bytes.Equal(fr.Payload, sent[keptK[j]]) {
				return fmt.Errorf("retained frame %d (Seq %d) now reads %x", keptK[j], fr.Seq, fr.Payload)
			}
		}
		return nil
	}
	for i := 0; i+1 < len(ops) && broken == nil; i += 2 {
		arg := int(ops[i+1])
		switch ops[i] % 8 {
		case 0:
			k := issued
			payload := make([]byte, 8+arg%64)
			reserved := -1
			if arg&128 != 0 && len(held) > 0 {
				reserved, held = held[0], held[1:]
				payload = payload[:min(len(payload), reserved)]
			}
			for j := range payload {
				payload[j] = byte(k) + byte(j)
			}
			binary.LittleEndian.PutUint64(payload, k)
			if w.Append(payload, reserved, func(err error) {
				switch {
				case len(completed) > 0 && k != completed[len(completed)-1]+1 || len(completed) == 0 && k != 0:
					broken = fmt.Errorf("frame %d completed after %v", k, completed)
				case err == nil && failed:
					broken = fmt.Errorf("frame %d acked OK after a final failure", k)
				}
				completed = append(completed, k)
				if err != nil {
					failed = true
				} else {
					okAcks++
				}
			}) {
				issued++
				sent = append(sent, payload)
			}
		case 1:
			net.CutLink(fabric.MachineID(arg&1), fabric.MachineID(1-arg&1))
		case 2:
			net.HealLink(fabric.MachineID(arg&1), fabric.MachineID(1-arg&1))
		case 3:
			poll()
		case 4:
			if broken = intact(); broken == nil && len(kept) > 0 {
				j := arg % len(kept)
				truncate(kept[j].Seq)
				kept, keptK = slices.Delete(kept, j, j+1), slices.Delete(keptK, j, j+1)
			}
		case 5:
			w.UpdateConsumed(r.ConsumedBytes())
		case 6: // up to 130 ms, past the last retry
			eng.RunFor(sim.Time(arg*arg) * 2 * sim.Microsecond)
		case 7:
			if n := 8 + arg%64; w.Reserve(n) {
				held = append(held, n)
			}
		}
		if broken == nil {
			broken = sameReaders(flat, r, mem)
		}
		if op := ops[i] % 8; broken == nil && (op == 3 || op == 4) {
			broken = pagesFollowTheWindow(r)
		}
	}
	net.HealLink(0, 1)
	net.HealLink(1, 0)
	eng.Run()
	// The reader frees everything it holds and says so, until the writer
	// has nothing parked for space.
	poll()
	if broken == nil {
		broken = intact()
	}
	for broken == nil {
		for _, fr := range kept {
			truncate(fr.Seq)
		}
		kept, keptK = kept[:0], keptK[:0]
		if broken = sameReaders(flat, r, mem); broken == nil {
			broken = pagesFollowTheWindow(r)
		}
		w.UpdateConsumed(r.ConsumedBytes())
		eng.Run()
		if poll(); len(kept) == 0 || broken != nil {
			break
		}
		broken = intact()
	}
	if broken != nil {
		return broken
	}
	if uint64(len(completed)) != issued {
		return fmt.Errorf("%d frames issued, %d completed on a quiet fabric", issued, len(completed))
	}
	for j, k := range polled {
		if k != uint64(j) {
			return fmt.Errorf("the reader handed out %v", polled)
		}
	}
	if uint64(len(polled)) < okAcks {
		return fmt.Errorf("%d frames acked OK, the reader handed out %d", okAcks, len(polled))
	}
	return nil
}
