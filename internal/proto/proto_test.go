package proto

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func sampleRecord() *Record {
	return &Record{
		Type:    RecLock,
		Tx:      TxID{Config: 3, Machine: 7, Thread: 11, Local: 42},
		Regions: []uint32{1, 9, 200},
		Writes: []ObjectWrite{
			{Addr: Addr{Region: 1, Off: 64}, Version: 5, Value: []byte("hello")},
			{Addr: Addr{Region: 9, Off: 128}, Version: 77, Value: []byte{}},
			{Addr: Addr{Region: 9, Off: 4096}, Allocated: true, Class: 64, Value: []byte("fresh")},
		},
		TruncLow: 40,
		TruncIDs: []uint64{40, 41},
	}
}

// encode is AppendRecord into a buffer of exactly RecordSize bytes, the
// way ring frames are filled.
func encode(r *Record) []byte {
	return AppendRecord(make([]byte, 0, RecordSize(r)), r)
}

func decode(t *testing.T, b []byte) *Record {
	t.Helper()
	got := new(Record)
	if err := DecodeRecord(b, got); err != nil {
		t.Fatal(err)
	}
	return got
}

// sameRecord compares field by field, treating nil and empty slices alike
// (the wire carries only lengths).
func sameRecord(a, b *Record) bool {
	if a.Type != b.Type || a.Tx != b.Tx || a.TruncLow != b.TruncLow ||
		!slices.Equal(a.Regions, b.Regions) || !slices.Equal(a.TruncIDs, b.TruncIDs) ||
		len(a.Writes) != len(b.Writes) {
		return false
	}
	for i := range a.Writes {
		x, y := a.Writes[i], b.Writes[i]
		if x.Addr != y.Addr || x.Version != y.Version || x.Allocated != y.Allocated || x.Class != y.Class ||
			!bytes.Equal(x.Value, y.Value) {
			return false
		}
	}
	return true
}

func TestRecordRoundTrip(t *testing.T) {
	r := sampleRecord()
	b := encode(r)
	if len(b) != RecordSize(r) {
		t.Fatalf("encoded %d bytes, RecordSize says %d", len(b), RecordSize(r))
	}
	if got := decode(t, b); !sameRecord(got, r) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
}

func TestAllTable1RecordTypesRoundTrip(t *testing.T) {
	for _, typ := range []RecordType{RecLock, RecCommitBackup, RecCommitPrimary, RecAbort, RecTruncate} {
		r := &Record{Type: typ, Tx: TxID{Config: 1, Machine: 2, Thread: 3, Local: 4}}
		if got := decode(t, encode(r)); got.Type != typ || got.Tx != r.Tx {
			t.Fatalf("%v: round trip mismatch", typ)
		}
	}
}

// TestAppendRecordExtends: AppendRecord appends after what dst already
// holds and leaves it untouched.
func TestAppendRecordExtends(t *testing.T) {
	r := sampleRecord()
	b := AppendRecord([]byte("hdr"), r)
	if string(b[:3]) != "hdr" || !sameRecord(decode(t, b[3:]), r) {
		t.Fatal("AppendRecord must extend dst, not overwrite it")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	good := encode(sampleRecord())
	hugeCount := append([]byte(nil), good[:29]...) // fixed header, then a count nothing backs
	hugeCount = append(hugeCount, 0xff, 0xff)
	wideClass := encode(&Record{Type: RecLock, Writes: []ObjectWrite{{Allocated: true, Class: 1 << maxClassLog2}}})
	wideClass[len(wideClass)-5] += 2 // the flags byte, one slot size wider
	cases := [][]byte{
		nil,
		{},
		{0},            // invalid type
		{255, 1, 2, 3}, // unknown type
		good[:10],      // truncated
		good[:len(good)-1],
		append(append([]byte(nil), good...), 0), // trailing bytes
		hugeCount,
		wideClass,
	}
	for i, c := range cases {
		rec := Record{Type: RecLock}
		if err := DecodeRecord(c, &rec); !errors.Is(err, ErrBadRecord) {
			t.Errorf("case %d: garbage accepted (err=%v)", i, err)
		}
		if rec.Type != RecInvalid || rec.Writes != nil || rec.Regions != nil || rec.TruncIDs != nil {
			t.Errorf("case %d: failed decode left content behind: %+v", i, rec)
		}
	}
}

// randomRecord draws a record with every field exercised, including empty
// values and frees.
func randomRecord(rng *rand.Rand) *Record {
	r := &Record{
		Type:     RecordType(1 + rng.Intn(int(RecTruncate))),
		Tx:       TxID{Config: rng.Uint64(), Machine: uint16(rng.Uint32()), Thread: uint16(rng.Uint32()), Local: rng.Uint64()},
		TruncLow: rng.Uint64(),
	}
	for i := rng.Intn(10); i > 0; i-- {
		r.TruncIDs = append(r.TruncIDs, rng.Uint64())
	}
	for i := rng.Intn(6); i > 0; i-- {
		r.Regions = append(r.Regions, rng.Uint32())
	}
	for i := rng.Intn(40); i > 0; i-- {
		v := make([]byte, rng.Intn(200))
		rng.Read(v)
		w := ObjectWrite{
			Addr:      Addr{Region: rng.Uint32(), Off: rng.Uint32()},
			Version:   rng.Uint64(),
			Allocated: rng.Intn(2) == 0,
			Value:     v,
		}
		if w.Allocated && rng.Intn(2) == 0 {
			w.Class = 1 << (1 + rng.Intn(maxClassLog2))
		}
		r.Writes = append(r.Writes, w)
	}
	return r
}

func TestRandomRecordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		r := randomRecord(rng)
		b := encode(r)
		if len(b) != RecordSize(r) {
			t.Fatalf("record %d: encoded %d bytes, RecordSize says %d", i, len(b), RecordSize(r))
		}
		if got := decode(t, b); !sameRecord(got, r) {
			t.Fatalf("record %d: round trip mismatch:\n got %+v\nwant %+v", i, got, r)
		}
	}
}

// TestDecodedValuesAliasInput pins the one-copy contract: decoded values
// point into the input (no per-object copy) and are capacity-capped, so
// appending to one cannot overwrite its neighbour.
func TestDecodedValuesAliasInput(t *testing.T) {
	r := sampleRecord()
	r.Writes[1].Value = []byte("world")
	b := encode(r)
	got := decode(t, b)
	v := got.Writes[0].Value
	if i := bytes.Index(b, []byte("hello")); &b[i] != &v[0] {
		t.Fatal("decoded value is a copy, not an alias of the input")
	}
	if cap(v) != len(v) {
		t.Fatalf("decoded value has spare capacity %d: append would overwrite the input", cap(v)-len(v))
	}
	_ = append(v, 'X')
	if !bytes.Equal(got.Writes[1].Value, []byte("world")) || !sameRecord(decode(t, b), r) {
		t.Fatal("append to a decoded value corrupted the input")
	}
}

// bigRecord draws random records until one has at least 30 writes and 4
// regions and truncation ids.
func bigRecord(rng *rand.Rand) *Record {
	for {
		if r := randomRecord(rng); len(r.Writes) >= 30 && len(r.Regions) >= 4 && len(r.TruncIDs) >= 4 {
			return r
		}
	}
}

// TestDecodeIntoUsedRecord: decoding into a record that held more writes,
// regions and ids leaves none of them behind, whatever the new record's
// lists hold; an empty list is nil in a fresh record and empty (its array
// kept for the next decode) in a used one, and a failed decode zeroes it.
func TestDecodeIntoUsedRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	big := bigRecord(rng)
	small := sampleRecord()
	small.Writes, small.Regions = small.Writes[:1], small.Regions[:1]
	empty := &Record{Type: RecCommitPrimary, Tx: TxID{Config: 9, Machine: 1, Thread: 2, Local: 3}}
	for _, want := range []*Record{small, empty, randomRecord(rng), big} {
		used := decode(t, encode(big))
		capW := cap(used.Writes)
		if err := DecodeRecord(encode(want), used); err != nil {
			t.Fatal(err)
		}
		if !sameRecord(used, want) {
			t.Fatalf("decoded into a used record:\n got %+v\nwant %+v", used, want)
		}
		if len(want.Writes) <= capW && cap(used.Writes) != capW {
			t.Fatalf("%d writes into capacity %d reallocated", len(want.Writes), capW)
		}
	}
	used := decode(t, encode(big))
	if err := DecodeRecord(encode(empty), used); err != nil ||
		used.Writes == nil || used.Regions == nil || used.TruncIDs == nil ||
		len(used.Writes)+len(used.Regions)+len(used.TruncIDs) != 0 {
		t.Fatalf("empty lists in a used record: %+v (%v)", used, err)
	}
	if fresh := decode(t, encode(empty)); fresh.Writes != nil || fresh.Regions != nil || fresh.TruncIDs != nil {
		t.Fatalf("empty lists in a fresh record are not nil: %+v", fresh)
	}
	if DecodeRecord(encode(big)[:40], used) == nil || used.Type != RecInvalid ||
		used.Writes != nil || used.Regions != nil || used.TruncIDs != nil {
		t.Fatalf("failed decode into a used record left %+v", used)
	}
}

// TestCodecAllocationBudget: sizing and encoding into a sized buffer are
// free, decoding allocates the record's three slices (plus the caller's
// Record) however many objects it carries, and decoding into a record that
// held as many elements allocates nothing.
func TestCodecAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	small, large := randomRecord(rng), randomRecord(rng)
	small.Writes, large.Writes = small.Writes[:0], nil
	for i := 0; i < 2; i++ {
		small.Writes = append(small.Writes, ObjectWrite{Value: make([]byte, 64)})
	}
	for i := 0; i < 40; i++ {
		large.Writes = append(large.Writes, ObjectWrite{Value: make([]byte, 64)})
	}
	small.Regions, large.Regions = []uint32{1}, []uint32{1}
	small.TruncIDs, large.TruncIDs = []uint64{1}, []uint64{1}
	for _, r := range []*Record{small, large} {
		buf := make([]byte, 0, RecordSize(r))
		if n := testing.AllocsPerRun(100, func() { buf = AppendRecord(buf[:0], r) }); n != 0 {
			t.Errorf("RecordSize+AppendRecord of %d writes: %v allocs, want 0", len(r.Writes), n)
		}
		if n := testing.AllocsPerRun(100, func() { sink = RecordSize(r) }); n != 0 {
			t.Errorf("RecordSize of %d writes: %v allocs, want 0", len(r.Writes), n)
		}
		n := testing.AllocsPerRun(100, func() {
			rec := new(Record)
			if DecodeRecord(buf, rec) != nil {
				t.Fatal("decode failed")
			}
			sinkRec = rec
		})
		if n > 4 {
			t.Errorf("DecodeRecord of %d writes: %v allocs, want <= 4 whatever the write count", len(r.Writes), n)
		}
		warm := new(Record)
		n = testing.AllocsPerRun(100, func() {
			if DecodeRecord(buf, warm) != nil {
				t.Fatal("decode failed")
			}
		})
		if n != 0 {
			t.Errorf("DecodeRecord of %d writes into a warm record: %v allocs, want 0", len(r.Writes), n)
		}
	}
}

var (
	sink    int
	sinkRec *Record
)

// FuzzDecodeRecord: arbitrary bytes never panic; they either fail with
// ErrBadRecord or decode to a record that re-encodes to the same bytes —
// and to the same record when decoded into one that held more. Without
// -fuzz it runs the seed corpus as an ordinary test.
func FuzzDecodeRecord(f *testing.F) {
	good := encode(sampleRecord())
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 7))
	f.Add([]byte{})
	f.Add([]byte{byte(RecTruncate)})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add(encode(&Record{Type: RecCommitPrimary, Tx: TxID{Config: 1, Machine: 2, Thread: 3, Local: 4}}))
	for _, class := range []int{16, 1 << maxClassLog2} {
		f.Add(encode(&Record{Type: RecCommitBackup, Writes: []ObjectWrite{{Allocated: true, Class: class}}}))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		b := encode(randomRecord(rng))
		f.Add(b)
		b = append([]byte(nil), b...)
		b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8)) // one flipped bit
		f.Add(b)
	}
	used := encode(bigRecord(rand.New(rand.NewSource(5))))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec, reused Record
		err := DecodeRecord(data, &rec)
		if DecodeRecord(used, &reused) != nil {
			t.Fatal("decode of the reused record's first contents failed")
		}
		if rerr := DecodeRecord(data, &reused); rerr != err ||
			(err == nil && !sameRecord(&rec, &reused)) || (err != nil && reused.Writes != nil) {
			t.Fatalf("decoding into a used record: %v and %+v, into a fresh one: %v and %+v", rerr, reused, err, rec)
		}
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("unexpected error %v", err)
			}
			return
		}
		if RecordSize(&rec) != len(data) {
			t.Fatalf("decoded %d bytes but RecordSize says %d", len(data), RecordSize(&rec))
		}
		// Every encoding that decodes is the one AppendRecord writes.
		if again := encode(&rec); !bytes.Equal(again, data) {
			t.Fatalf("re-encoded record differs from its input:\n got %x\nwant %x", again, data)
		}
	})
}

func TestTxIDHelpers(t *testing.T) {
	id := TxID{Config: 1, Machine: 2, Thread: 3, Local: 4}
	if id.IsZero() {
		t.Fatal("non-zero id reported zero")
	}
	if (TxID{}).IsZero() == false {
		t.Fatal("zero id not detected")
	}
	if id.Coord() != (CoordKey{Machine: 2, Thread: 3}) {
		t.Fatalf("coord key = %+v", id.Coord())
	}
	if id.String() != "⟨1,2,3,4⟩" {
		t.Fatalf("String = %s", id)
	}
}

func TestVoteAndRecordTypeNames(t *testing.T) {
	if VoteCommitPrimary.String() != "commit-primary" || VoteTruncated.String() != "truncated" {
		t.Fatal("vote names wrong")
	}
	if RecLock.String() != "LOCK" || RecCommitBackup.String() != "COMMIT-BACKUP" {
		t.Fatal("record names wrong")
	}
	if RecordType(99).String() != "INVALID" {
		t.Fatal("unknown record type name")
	}
}

func TestConfigMember(t *testing.T) {
	c := &Config{ID: 5, Machines: []uint16{0, 2, 4}, CM: 0}
	if !c.Member(2) || c.Member(1) {
		t.Fatal("Member wrong")
	}
}
