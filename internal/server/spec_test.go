package server

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func parseSpecString(t *testing.T, s string) (*JobSpec, error) {
	t.Helper()
	return ParseSpec(strings.NewReader(s))
}

func TestParseSpecDefaults(t *testing.T) {
	spec, err := parseSpecString(t, `{"case":1}`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Method != "circleopt" || spec.Fallback != "circlerule" || spec.Tenant != "default" {
		t.Fatalf("defaults not applied: %+v", spec)
	}
	if spec.GridN != 256 || spec.TileCore != 128 || spec.TileHalo != 32 {
		t.Fatalf("geometry defaults not applied: %+v", spec)
	}
	if spec.Iters != 60 || spec.Gamma != 3 || spec.SampleNM != 32 || spec.KOpt != 5 {
		t.Fatalf("engine defaults not applied: %+v", spec)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty object", `{}`, "need layout or case"},
		{"both targets", `{"case":1,"layout":"a.glp"}`, "mutually exclusive"},
		{"case out of range", `{"case":11}`, "outside 1..10"},
		{"unknown field", `{"case":1,"grdi":256}`, "unknown field"},
		{"trailing data", `{"case":1} {"case":2}`, "trailing data"},
		{"absolute layout", `{"layout":"/etc/passwd.glp"}`, "escapes the layout root"},
		{"dotdot layout", `{"layout":"../secret.glp"}`, "escapes the layout root"},
		{"sneaky dotdot layout", `{"layout":"a/../../b.glp"}`, "escapes the layout root"},
		{"wrong extension", `{"layout":"notes.txt"}`, "want a .glp or .gds"},
		{"bad tenant", `{"case":1,"tenant":"a b!"}`, "tenant"},
		{"priority out of range", `{"case":1,"priority":1000}`, "priority"},
		{"unknown method", `{"case":1,"method":"magic"}`, "unknown method"},
		{"unknown fallback", `{"case":1,"fallback":"magic"}`, "unknown fallback"},
		{"grid too small", `{"case":1,"grid":16}`, "grid 16"},
		{"grid too large", `{"case":1,"grid":1000000}`, "grid 1000000"},
		{"window below floor", `{"case":1,"grid":64,"tile_core":8,"tile_halo":8}`, "below the 48 px floor"},
		{"window exceeds grid", `{"case":1,"grid":128,"tile_core":128,"tile_halo":32}`, "exceeds grid"},
		{"negative halo", `{"case":1,"tile_halo":-1}`, "halo -1"},
		{"negative iters", `{"case":1,"iters":-5}`, "iters"},
		{"gamma overflow literal", `{"case":1,"gamma":1e999}`, "spec:"},
		{"negative gamma", `{"case":1,"gamma":-1}`, "gamma"},
		{"nan knob as string", `{"case":1,"gamma":"NaN"}`, "spec:"},
		{"sample out of range", `{"case":1,"sample_nm":1e7}`, "sample_nm"},
		{"kopt out of range", `{"case":1,"kopt":99}`, "kopt"},
		{"tile_workers out of range", `{"case":1,"tile_workers":1000}`, "tile_workers"},
		{"partial_every negative", `{"case":1,"partial_every":-1}`, "partial_every"},
		{"deadline negative", `{"case":1,"deadline_ms":-1}`, "deadline_ms"},
		{"deadline past a day", `{"case":1,"deadline_ms":86400001}`, "deadline_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseSpecString(t, tc.in)
			if err == nil {
				t.Fatalf("spec %s was accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateNonFiniteKnobs covers values JSON cannot spell but a
// caller constructing specs programmatically could still pass.
func TestValidateNonFiniteKnobs(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := &JobSpec{Case: 1, Gamma: bad}
		s.Normalize()
		if s.Validate() == nil {
			t.Fatalf("gamma %v validated", bad)
		}
		s = &JobSpec{Case: 1, SampleNM: bad}
		s.Normalize()
		if s.Validate() == nil {
			t.Fatalf("sample_nm %v validated", bad)
		}
	}
}

func TestSpecDeadlineBoundsAndRoundTrip(t *testing.T) {
	spec, err := parseSpecString(t, `{"case":1,"deadline_ms":1500}`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.DeadlineMS != 1500 {
		t.Fatalf("deadline_ms = %d, want 1500", spec.DeadlineMS)
	}
	again, err := ParseSpec(bytes.NewReader(spec.Canonical()))
	if err != nil {
		t.Fatalf("canonical form rejected: %v", err)
	}
	if again.DeadlineMS != 1500 || !bytes.Equal(spec.Canonical(), again.Canonical()) {
		t.Fatalf("deadline_ms lost in canonical round-trip:\n%s", again.Canonical())
	}
	// Zero means "no deadline" and stays out of the canonical bytes.
	spec2, _ := parseSpecString(t, `{"case":1}`)
	if spec2.DeadlineMS != 0 || strings.Contains(string(spec2.Canonical()), "deadline_ms") {
		t.Fatalf("zero deadline should be omitted: %s", spec2.Canonical())
	}
}

func TestSpecCanonicalRoundTrip(t *testing.T) {
	a, err := parseSpecString(t, `{"case":3,"priority":7,"tenant":"alice","iters":2}`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec(bytes.NewReader(a.Canonical()))
	if err != nil {
		t.Fatalf("canonical form rejected: %v", err)
	}
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatalf("canonical round-trip changed the spec:\n%s\n%s", a.Canonical(), b.Canonical())
	}
}

// FuzzJobSpec hammers the decode/validate path: no input may panic,
// and every accepted spec must satisfy the service invariants — local
// layout refs only, finite knobs, geometry the flow accepts — and
// round-trip through its canonical bytes unchanged.
func FuzzJobSpec(f *testing.F) {
	seeds := []string{
		`{"case":1}`,
		`{"case":10,"grid":512,"tile_core":256,"tile_halo":64}`,
		`{"layout":"a/b.glp","tenant":"alice","priority":-3}`,
		`{"layout":"x.gds","method":"develset","fallback":"none"}`,
		`{"case":1,"gamma":0.5,"sample_nm":16,"iters":1}`,
		`{"case":1,"deadline_ms":30000,"priority":5}`,
		`{"case":1,"deadline_ms":-7}`,
		`{"layout":"../evil.glp"}`,
		`{"layout":"/abs/evil.glp"}`,
		`{"case":1,"grid":1e9}`,
		`{"case":1,"gamma":1e999}`,
		`{"case":1,"unknown":true}`,
		`[1,2,3]`,
		`"just a string"`,
		`{"case":1}{"case":2}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs just need to not panic
		}
		if spec.Layout == "" && spec.Case == 0 {
			t.Fatalf("accepted a spec with no target: %s", data)
		}
		if spec.Layout != "" && !filepath.IsLocal(spec.Layout) {
			t.Fatalf("accepted traversal layout %q", spec.Layout)
		}
		for name, v := range map[string]float64{"gamma": spec.Gamma, "sample_nm": spec.SampleNM} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("accepted non-finite/non-positive %s %v", name, v)
			}
		}
		if spec.DeadlineMS < 0 || spec.DeadlineMS > 86_400_000 {
			t.Fatalf("accepted deadline_ms %d", spec.DeadlineMS)
		}
		window := spec.TileCore + 2*spec.TileHalo
		if window < minWindow || window > spec.GridN || spec.GridN > maxGrid {
			t.Fatalf("accepted geometry grid=%d core=%d halo=%d", spec.GridN, spec.TileCore, spec.TileHalo)
		}
		again, err := ParseSpec(bytes.NewReader(spec.Canonical()))
		if err != nil {
			t.Fatalf("canonical bytes of an accepted spec rejected: %v", err)
		}
		if !bytes.Equal(spec.Canonical(), again.Canonical()) {
			t.Fatalf("canonical round-trip not a fixed point:\n%s\n%s", spec.Canonical(), again.Canonical())
		}
	})
}
