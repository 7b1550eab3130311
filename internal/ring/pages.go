package ring

import (
	"bytes"
	"fmt"
)

// PageSize is the granule of a log ring's host memory. A ring shorter than
// a page is one page.
const PageSize = 4096

// zeroPage is what a page that is not held reads as.
var zeroPage [PageSize]byte

// Pages is a log ring's memory, the region its writer's one-sided writes
// land in (nvram.Store's paged kind): the ring's bytes as a table of pages.
// A page is nil, and reads as zeros, until a write lands a non-zero byte in
// it. The ring's reader drops it again once truncation has zeroed it and
// moved past it, to the spares it shares with the other rings of its
// machine, which the next page made takes before anything is allocated. So
// the host memory a ring holds follows its live window, not its capacity
// (DESIGN.md §12 "Log ring memory").
type Pages struct {
	size     int
	pageSize int
	pages    [][]byte // made at the first write; an entry is nil while its page is not held
	held     int      // pages in the table
	spares   *Spares
	// pinned: the one page is the caller's memory (NewReader), never dropped.
	pinned bool
	// zeroLanded: a write landed only zeros in a page already held, which
	// may read all zero now; the reader looks at its pages again.
	zeroLanded bool
}

// Spares are dropped pages, all zero, shared by the rings of one machine,
// so that a ring whose window grows takes the pages another's shrinking
// window gave up. They are kept up to four for each page the rings hold,
// and at least one per ring: the machine's windows together swing by that
// much under load (a TPC-C mix at 9 × 8), and a page given up only to be
// made again is an allocation per swing. A quiet machine keeps one spare
// per ring at most. The zero value is empty.
type Spares struct {
	free     [][]byte
	rings    int // the rings sharing them
	held     int // the pages their tables hold
	pageSize int
}

// HeldBytes returns the host memory the spares hold.
func (s *Spares) HeldBytes() int { return len(s.free) * s.pageSize }

// NewPages returns the memory of a ring of size bytes, no page held, whose
// dropped pages go to spares. size must be what NewWriter accepts as a
// capacity, and every ring sharing spares must be of one page size.
func NewPages(size int, spares *Spares) *Pages { return newPages(size, PageSize, spares) }

// newPages is NewPages with pages of pageSize bytes, a multiple of 16, so
// that a frame header never straddles two.
func newPages(size, pageSize int, spares *Spares) *Pages {
	checkSize(size)
	p := &Pages{size: size, pageSize: min(pageSize, size), spares: spares}
	if spares.pageSize != 0 && spares.pageSize != p.pageSize {
		panic(fmt.Sprintf("ring: pages of %d bytes share spares of %d", p.pageSize, spares.pageSize))
	}
	spares.pageSize = p.pageSize
	spares.rings++
	return p
}

// checkSize refuses a ring size NewWriter would refuse: shorter than a
// frame header, parse would wrap to offset 0 forever.
func checkSize(size int) {
	if size%16 != 0 || size < 64 {
		panic(fmt.Sprintf("ring: bad ring memory of %d bytes", size))
	}
}

// Size returns the ring's size in bytes.
func (p *Pages) Size() int { return p.size }

// HeldBytes returns the host memory the ring holds: the pages in its
// table.
func (p *Pages) HeldBytes() int { return p.held * p.pageSize }

// pageLen returns the length of page i: the last page of a ring that is not
// a whole number of pages is shorter.
func (p *Pages) pageLen(i int) int { return min(p.pageSize, p.size-i*p.pageSize) }

// page returns page i, nil while it is not held.
func (p *Pages) page(i int) []byte {
	if p.pages == nil {
		return nil
	}
	return p.pages[i]
}

// materialize returns page i, making it — from the spares if there is one
// — when it is not held.
func (p *Pages) materialize(i int) []byte {
	if p.pages == nil {
		p.pages = make([][]byte, (p.size+p.pageSize-1)/p.pageSize)
	}
	if p.pages[i] == nil {
		var pg []byte
		if free := p.spares.free; len(free) > 0 {
			pg, free[len(free)-1] = free[len(free)-1], nil
			p.spares.free = free[:len(free)-1]
		} else {
			pg = make([]byte, p.pageSize)
		}
		p.pages[i] = pg[:p.pageLen(i)]
		p.held++
		p.spares.held++
	}
	return p.pages[i]
}

// drop gives up page i, which reads all zero, to the spares, and the spares
// beyond what its machine keeps to the garbage collector.
func (p *Pages) drop(i int) {
	s := p.spares
	s.free = append(s.free, p.pages[i][:p.pageSize])
	p.pages[i] = nil
	p.held--
	s.held--
	for n := len(s.free); n > max(s.rings, 4*s.held); n-- {
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	}
}

// Release gives up every page: the ring reads as zeros again, as a ring
// re-created after a power cycle does.
func (p *Pages) Release() {
	clear(p.pages)
	p.spares.held -= p.held
	p.held, p.zeroLanded = 0, false
}

// WriteAt lands b at off, page by page, and reports false when it does not
// fit. A page that is not held is made only for non-zero bytes: zeros it
// reads as already.
func (p *Pages) WriteAt(b []byte, off int) bool {
	if off < 0 || off > p.size-len(b) {
		return false
	}
	for len(b) > 0 {
		i, at := off/p.pageSize, off%p.pageSize
		n := min(len(b), p.pageLen(i)-at)
		zeros := !p.pinned && bytes.Equal(b[:n], zeroPage[:n])
		if pg := p.page(i); pg != nil {
			copy(pg[at:], b[:n])
			p.zeroLanded = p.zeroLanded || zeros
		} else if !zeros {
			copy(p.materialize(i)[at:], b[:n])
		}
		b, off = b[n:], off+n
	}
	return true
}

// ReadAt copies the ring's bytes from off on into b, and reports false when
// the ring does not hold them all. A page that is not held reads as zeros.
func (p *Pages) ReadAt(b []byte, off int) bool {
	if off < 0 || off > p.size-len(b) {
		return false
	}
	for len(b) > 0 {
		i, at := off/p.pageSize, off%p.pageSize
		n := min(len(b), p.pageLen(i)-at)
		if pg := p.page(i); pg != nil {
			copy(b, pg[at:at+n])
		} else {
			clear(b[:n])
		}
		b, off = b[n:], off+n
	}
	return true
}

// zero clears the ring's bytes in [off, off+n), clipped to its end.
func (p *Pages) zero(off, n int) {
	for end := min(off+n, p.size); off < end; {
		i, at := off/p.pageSize, off%p.pageSize
		k := min(end-off, p.pageLen(i)-at)
		if pg := p.page(i); pg != nil {
			clear(pg[at : at+k])
		}
		off += k
	}
}
