package cpu

// The shared kernel-dispatch helper. The sparse and dense engines used
// to carry near-identical switch statements mapping a block width to a
// register-blocked kernel; both now build a Table, the vector kernels
// register into it from one init per package, and Pick applies the same
// width classification and flavor fallback everywhere. The kernel
// signature differs per engine, hence the type parameter.

// Width classifies a block width into the kernel classes both engines
// specialize: exact 4/8/16 columns, any wider multiple of 8 (tiled as
// 8-column panels), and everything else.
type Width int

const (
	WidthGeneric Width = iota
	WidthK4
	WidthK8
	WidthK16
	WidthPanel8
	numWidths
)

// WidthOf maps a column count to its kernel class — the one width
// classification both engines share.
func WidthOf(k int) Width {
	switch {
	case k == 4:
		return WidthK4
	case k == 8:
		return WidthK8
	case k == 16:
		return WidthK16
	case k > 16 && k%8 == 0:
		return WidthPanel8
	default:
		return WidthGeneric
	}
}

// String names the class the way kernel metrics and BENCH reports do.
func (w Width) String() string {
	switch w {
	case WidthK4:
		return "k4"
	case WidthK8:
		return "k8"
	case WidthK16:
		return "k16"
	case WidthPanel8:
		return "panel8"
	default:
		return "generic"
	}
}

// entry is one registered kernel plus the name it reports.
type entry[K any] struct {
	fn   K
	name string
	ok   bool
}

// Table maps (width, flavor) to a kernel. The Go flavor is complete by
// construction (set at package init of the owning engine); the SIMD
// flavor is sparse — widths without a vector kernel fall back to the Go
// entry, mirroring Resolve's hardware fallback.
type Table[K any] struct {
	goFl   [numWidths]entry[K]
	simdFl [numWidths]entry[K]
}

// NewTable builds a table whose every width starts at the generic Go
// kernel; SetGo overrides the specialized widths.
func NewTable[K any](generic K, genericName string) *Table[K] {
	t := &Table[K]{}
	for w := Width(0); w < numWidths; w++ {
		t.goFl[w] = entry[K]{fn: generic, name: genericName, ok: true}
	}
	return t
}

// SetGo installs the scalar Go kernel for a width class.
func (t *Table[K]) SetGo(w Width, fn K, name string) {
	t.goFl[w] = entry[K]{fn: fn, name: name, ok: true}
}

// Register installs the vector (KernelSIMD) kernel for a width class.
// The name should carry the instruction-set suffix ("k16+avx2") so
// metrics and bench output attribute timings to the code that ran.
func (t *Table[K]) Register(w Width, fn K, name string) {
	t.simdFl[w] = entry[K]{fn: fn, name: name, ok: true}
}

// Pick returns the kernel and its reporting name for a k-column block
// under the resolved mode.
func (t *Table[K]) Pick(k int, mode KernelMode) (K, string) {
	w := WidthOf(k)
	e := t.goFl[w]
	if s := t.simdFl[w]; s.ok && Resolve(mode) == KernelSIMD {
		e = s
	}
	return e.fn, e.name
}

// Variants is the width-free sibling of Table for dispatches that pick
// a single blocked kernel by shape thresholds rather than by width
// class (the dense A·Bᵀ dot4 and Aᵀ·B 2×4-tile kernels).
type Variants[K any] struct {
	goFl, simdFl entry[K]
}

// NewVariants builds a variant set around the scalar Go kernel.
func NewVariants[K any](fn K, name string) *Variants[K] {
	return &Variants[K]{goFl: entry[K]{fn: fn, name: name, ok: true}}
}

// Register installs the vector variant, as in Table.Register.
func (v *Variants[K]) Register(fn K, name string) {
	v.simdFl = entry[K]{fn: fn, name: name, ok: true}
}

// Pick returns the variant for the resolved mode, with the same
// simd → go fallback as Table.Pick.
func (v *Variants[K]) Pick(mode KernelMode) (K, string) {
	e := v.goFl
	if v.simdFl.ok && Resolve(mode) == KernelSIMD {
		e = v.simdFl
	}
	return e.fn, e.name
}
