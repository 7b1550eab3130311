package proto

import "testing"

// benchRecord is a NewOrder-sized LOCK record: ten 64-byte objects in two
// regions with a full truncation piggyback.
func benchRecord() *Record {
	r := &Record{
		Type:     RecLock,
		Tx:       TxID{Config: 3, Machine: 7, Thread: 11, Local: 42},
		Regions:  []uint32{1, 9},
		TruncLow: 40,
		TruncIDs: make([]uint64, 8),
	}
	for i := 0; i < 10; i++ {
		r.Writes = append(r.Writes, ObjectWrite{
			Addr: Addr{Region: uint32(1 + 8*(i%2)), Off: uint32(64 * i)}, Version: uint64(i), Allocated: true,
			Value: make([]byte, 64),
		})
	}
	return r
}

// BenchmarkRecordEncode is the sender's per-record cost: size the frame,
// encode in place.
func BenchmarkRecordEncode(b *testing.B) {
	r := benchRecord()
	buf := make([]byte, 0, RecordSize(r))
	b.SetBytes(int64(RecordSize(r)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRecord(buf[:0:RecordSize(r)], r)
	}
	sink = len(buf)
}

// BenchmarkRecordDecode is the receiver's: one Record and its three
// slices, values aliasing the input.
func BenchmarkRecordDecode(b *testing.B) {
	buf := encode(benchRecord())
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := new(Record)
		if err := DecodeRecord(buf, rec); err != nil {
			b.Fatal(err)
		}
		sinkRec = rec
	}
}
