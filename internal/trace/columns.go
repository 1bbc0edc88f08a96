package trace

// Columns is a struct-of-arrays batch of decoded instructions: the
// simulator's native staging layout for a shared decoded trace (see
// Decoded). All field slices share one length; entry i across the slices
// describes the i-th instruction. Synchronization events are not
// represented in columns: a DecodedCursor window ends at each one, and the
// cursor hands the event out separately.
type Columns struct {
	PC       []uint64
	Addr     []uint64 // data address; zero for non-memory classes
	Class    []Class
	Dst      []int8 // destination register, -1 if none
	Src1     []int8
	Src2     []int8
	BranchID []uint16
	Taken    []bool
}

// NewColumns allocates a column batch with capacity n.
func NewColumns(n int) *Columns {
	return &Columns{
		PC:       make([]uint64, n),
		Addr:     make([]uint64, n),
		Class:    make([]Class, n),
		Dst:      make([]int8, n),
		Src1:     make([]int8, n),
		Src2:     make([]int8, n),
		BranchID: make([]uint16, n),
		Taken:    make([]bool, n),
	}
}

// slice returns a view of the first [lo, hi) entries of every column.
func (c *Columns) slice(lo, hi int) Columns {
	return Columns{
		PC: c.PC[lo:hi], Addr: c.Addr[lo:hi],
		Class: c.Class[lo:hi], Dst: c.Dst[lo:hi],
		Src1: c.Src1[lo:hi], Src2: c.Src2[lo:hi],
		BranchID: c.BranchID[lo:hi], Taken: c.Taken[lo:hi],
	}
}
