package cpu

import "testing"

func TestEnvDefault(t *testing.T) {
	cases := map[string]KernelMode{
		"off":    KernelGo,
		"go":     KernelGo,
		"scalar": KernelGo,
		"OFF":    KernelGo,
		" go ":   KernelGo,
		"fma":    KernelSIMD, // no such flavor: an unknown value
		"FMA":    KernelSIMD,
		"":       KernelSIMD,
		"auto":   KernelSIMD,
		"on":     KernelSIMD,
		"simd":   KernelSIMD,
		"typo":   KernelSIMD, // unknown values stay on the safe default
	}
	for val, want := range cases {
		if got := envDefault(val); got != want {
			t.Errorf("envDefault(%q) = %v, want %v", val, got, want)
		}
	}
}

func TestResolveClamping(t *testing.T) {
	f := Supported()
	if got := Resolve(KernelGo); got != KernelGo {
		t.Errorf("Resolve(go) = %v, want go", got)
	}
	switch got := Resolve(KernelSIMD); {
	case f.HasSIMD() && got != KernelSIMD:
		t.Errorf("Resolve(simd) = %v on SIMD hardware, want simd", got)
	case !f.HasSIMD() && got != KernelGo:
		t.Errorf("Resolve(simd) = %v without SIMD, want go", got)
	}
	// Auto resolves to a concrete flavor, never back to Auto.
	if got := Resolve(KernelAuto); got == KernelAuto {
		t.Error("Resolve(auto) did not resolve to a concrete mode")
	}
}

func TestKernelModeStringsAndValidity(t *testing.T) {
	names := map[KernelMode]string{
		KernelAuto: "auto", KernelGo: "go", KernelSIMD: "simd",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
		if !m.Valid() {
			t.Errorf("%v unexpectedly invalid", m)
		}
	}
	if KernelMode(3).Valid() || KernelMode(99).Valid() || KernelMode(-1).Valid() {
		t.Error("out-of-range modes reported valid")
	}
}

func TestFeaturesSummary(t *testing.T) {
	cases := []struct {
		f    Features
		want string
	}{
		{Features{}, "none"},
		{Features{AVX2: true}, "avx2"},
		{Features{AVX2: true, FMA: true}, "avx2,fma"},
		{Features{NEON: true}, "neon"},
	}
	for _, c := range cases {
		if got := c.f.Summary(); got != c.want {
			t.Errorf("Summary(%+v) = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestSupportedMatchesBuild(t *testing.T) {
	// Whatever detection found, the feature set must be coherent.
	f := Supported()
	if f.FMA && !f.AVX2 {
		t.Errorf("FMA reported without AVX2: %+v", f)
	}
	if f.AVX2 && f.NEON {
		t.Errorf("impossible feature combination: %+v", f)
	}
}
