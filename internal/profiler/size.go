package profiler

import (
	"unsafe"

	"rppm/internal/statstack"
	"rppm/internal/trace"
)

// Resident-size accounting for retained profiles, used by the engine's
// memory-budgeted cache. Sizes are the dominant retained storage (count
// arrays, window arrays, site tables) plus struct overhead; sub-slab
// rounding is ignored, so the figure is a tight lower bound on the true
// heap footprint.

// SizeBytes returns the resident size of one sampled micro-trace window.
func (w *Window) SizeBytes() int64 {
	n := int64(len(w.Classes)) * int64(unsafe.Sizeof(trace.Class(0)))
	n += 2 * 2 * int64(len(w.Dep1))
	n += 8 * int64(len(w.GlobalRD))
	n += int64(len(w.IsLoad))
	return n
}

// spareBytes returns the resident size of the arena's slab slots that no
// window uses. Every chunk holds at least one window (a window opens on
// an instruction), so the profile retains them all.
func (a *winArena) spareBytes() int64 {
	slot := int64(unsafe.Sizeof(trace.Class(0))) + 2*2 + 8 + 1 // class, deps, global RD, load flag
	return int64(a.spare+a.cap-a.pos) * slot
}

// SizeBytes returns the resident size of one epoch profile.
func (e *Epoch) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*e))
	n += e.Branch.SizeBytes()
	n += e.PrivateRD.SizeBytes() + e.GlobalRD.SizeBytes() + e.InstrRD.SizeBytes()
	n += e.modelBytes() + MemoBytes
	n += int64(len(e.Windows)) * int64(unsafe.Sizeof(Window{}))
	for i := range e.Windows {
		n += e.Windows[i].SizeBytes()
	}
	return n
}

// modelBytes returns the size of the epoch's StatStack models. They are
// charged at their eventual size whether or not they are built yet:
// prediction builds them after the profile is cached, and accounting must
// not depend on timing.
func (e *Epoch) modelBytes() int64 {
	n := int64(unsafe.Sizeof(Models{}))
	if m := e.models.Load(); m != nil {
		return n + m.Private.SizeBytes() + m.Global.SizeBytes() + m.Instr.SizeBytes()
	}
	return n + statstack.SizeFor(e.PrivateRD) + statstack.SizeFor(e.GlobalRD) + statstack.SizeFor(e.InstrRD)
}

// SizeBytes returns the resident size of one thread's profile.
func (t *ThreadProfile) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*t)) + t.slabSpare
	n += int64(len(t.Events)) * int64(unsafe.Sizeof(trace.Event{}))
	n += int64(len(t.Epochs)) * int64(unsafe.Sizeof((*Epoch)(nil)))
	for _, e := range t.Epochs {
		n += e.SizeBytes()
	}
	return n
}

// SizeBytes returns the resident size of the whole workload profile.
func (p *Profile) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*p)) + int64(len(p.Name))
	for _, t := range p.Threads {
		n += t.SizeBytes()
	}
	return n
}
