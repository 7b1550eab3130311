package audit

import (
	"fmt"
	"testing"
)

var sinkHash uint64

// BenchmarkObjectHash is the digest's per-slot cost at slot extents of
// 64, 256 and 1 024 B size classes (each less its 8-byte header) and of a
// whole 16 KiB block's worth.
func BenchmarkObjectHash(b *testing.B) {
	for _, n := range []int{56, 248, 1016, 16376} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i)
		}
		b.Run(fmt.Sprint(n, "B"), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkHash += ObjectHash(i, 3, payload)
			}
		})
	}
}
