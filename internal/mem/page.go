package mem

// Data memory is kept in fixed-size pages of pageWords words. A page that
// no store has reached is nil and reads as zero, so a machine allocates
// memory for what its program writes, not for what it reserves: every
// kernel's per-thread streaming array is only ever read.
const (
	pageShift = 9
	pageWords = 1 << pageShift // 4 KiB of 64-bit words
	pageMask  = pageWords - 1
)

// lineTag is the directory's per-line communication state: writer is the
// core id + 1 of the last core to store to the line (0 if never written)
// and ivl the checkpoint interval of that store.
type lineTag struct {
	writer, ivl int32
}

// page is one page of the System's state: the tags of the lines the page
// holds, the log bits of its words and the words. tags is the only pointer
// and comes first, so the garbage collector scans one slice header per
// page, not the words; the log bits follow it, so a store mostly finds the
// two in one cache line.
type page struct {
	tags []lineTag
	// logBits: one bit per word; set when the word's old value has been
	// captured (or amnesically omitted) for the current checkpoint
	// interval (paper §II-A). Bits of words past the memory size are
	// never set.
	logBits [pageWords / 64]uint64
	words   [pageWords]int64
}

// Image is a sparse copy of a memory image, as retained by checkpoint
// strategies: a table of word pages in which a nil page reads as zero.
// Images come from System.Snapshot and Clone.
type Image struct {
	pages []*[pageWords]int64
}

// Word returns the word at addr.
func (img *Image) Word(addr int64) int64 {
	if p := img.pages[addr>>pageShift]; p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// SetWord sets the word at addr, allocating its page if the page is nil
// and val is nonzero.
func (img *Image) SetWord(addr, val int64) {
	p := img.pages[addr>>pageShift]
	if p == nil {
		if val == 0 {
			return
		}
		p = new([pageWords]int64)
		img.pages[addr>>pageShift] = p
	}
	p[addr&pageMask] = val
}

// Clone returns a copy of img that copies only the pages present.
func (img *Image) Clone() *Image {
	out := &Image{pages: make([]*[pageWords]int64, len(img.pages))}
	for i, p := range img.pages {
		if p != nil {
			cp := *p
			out.pages[i] = &cp
		}
	}
	return out
}
