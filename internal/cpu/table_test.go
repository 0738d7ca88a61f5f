package cpu

import "testing"

func TestWidthOf(t *testing.T) {
	cases := map[int]Width{
		0: WidthGeneric, 1: WidthGeneric, 3: WidthGeneric, 5: WidthGeneric,
		4: WidthK4, 8: WidthK8, 16: WidthK16,
		24: WidthPanel8, 32: WidthPanel8, 128: WidthPanel8,
		12: WidthGeneric, // multiple of 8 required past 16, 12 is neither
		17: WidthGeneric, 20: WidthGeneric,
	}
	for k, want := range cases {
		if got := WidthOf(k); got != want {
			t.Errorf("WidthOf(%d) = %v, want %v", k, got, want)
		}
	}
	names := map[Width]string{
		WidthGeneric: "generic", WidthK4: "k4", WidthK8: "k8",
		WidthK16: "k16", WidthPanel8: "panel8",
	}
	for w, want := range names {
		if w.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(w), w.String(), want)
		}
	}
}

// kernelStub lets the table tests observe which registration Pick chose
// without real kernels.
type kernelStub func() string

func stub(name string) kernelStub { return func() string { return name } }

func TestTableFallbackChain(t *testing.T) {
	tb := NewTable[kernelStub](stub("generic"), "generic")
	tb.SetGo(WidthK16, stub("k16"), "k16")
	tb.Register(WidthK16, stub("k16+v"), "k16+v")
	tb.Register(WidthK8, stub("k8+v"), "k8+v")

	// Pick resolves through the hardware, so exercise the slots directly
	// with modes the machine is guaranteed to support.
	if fn, name := tb.Pick(16, KernelGo); name != "k16" || fn() != "k16" {
		t.Errorf("Pick(16, go) = %q", name)
	}
	if _, name := tb.Pick(5, KernelGo); name != "generic" {
		t.Errorf("Pick(5, go) = %q, want generic", name)
	}

	if !Supported().HasSIMD() {
		t.Skip("no SIMD on this CPU; flavor slots unreachable through Pick")
	}
	if _, name := tb.Pick(16, KernelSIMD); name != "k16+v" {
		t.Errorf("Pick(16, simd) = %q, want k16+v", name)
	}
	// SIMD flavor with no registration for the width falls back to Go.
	if _, name := tb.Pick(4, KernelSIMD); name != "generic" {
		t.Errorf("Pick(4, simd) = %q, want generic fallback", name)
	}
}

func TestVariantsFallbackChain(t *testing.T) {
	v := NewVariants[kernelStub](stub("go"), "go")
	if _, name := v.Pick(KernelGo); name != "go" {
		t.Errorf("Pick(go) = %q", name)
	}
	// No vector registrations: every flavor lands on the Go variant.
	if _, name := v.Pick(KernelSIMD); name != "go" {
		t.Errorf("unregistered Pick(simd) = %q, want go", name)
	}
	v.Register(stub("v"), "v")
	if !Supported().HasSIMD() {
		t.Skip("no SIMD on this CPU; flavor slots unreachable through Pick")
	}
	if _, name := v.Pick(KernelSIMD); name != "v" {
		t.Errorf("Pick(simd) = %q, want v", name)
	}
}
