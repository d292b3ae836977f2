package core

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m := paperExampleModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got) {
		t.Fatal("round trip changed the model")
	}
	if got.N() != m.N() || got.Windows() != m.Windows() || got.Matches() != m.Matches() {
		t.Errorf("metadata mismatch: %d/%d/%d", got.N(), got.Windows(), got.Matches())
	}
	// The loaded model is directly usable by the shedder.
	cdt, err := BuildCDT(got, Partitioning{Rho: 1, PSize: 5, WS: 5})
	if err != nil {
		t.Fatal(err)
	}
	if cdt.Threshold(0, 2) != 10 {
		t.Error("loaded model produces wrong threshold")
	}
}

func TestLoadModelErrors(t *testing.T) {
	m := paperExampleModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("XXXX"), valid[4:]...)},
		{"truncated header", valid[:10]},
		{"truncated body", valid[:len(valid)-20]},
		{"missing checksum", valid[:len(valid)-4]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LoadModel(bytes.NewReader(tc.data)); err == nil {
				t.Error("expected load error")
			}
		})
	}

	// Corrupted payload byte: checksum must catch it.
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0xFF
	if _, err := LoadModel(bytes.NewReader(corrupt)); err == nil {
		t.Error("checksum must detect corruption")
	}

	// Bad version.
	badVer := append([]byte(nil), valid...)
	badVer[4] = 99
	if _, err := LoadModel(bytes.NewReader(badVer)); err == nil {
		t.Error("bad version must fail")
	}
}

func TestModelEqual(t *testing.T) {
	a := paperExampleModel(t)
	b := paperExampleModel(t)
	if !a.Equal(b) {
		t.Fatal("identical models must be equal")
	}
	b.ut.Set(0, 0, 1)
	if a.Equal(b) {
		t.Fatal("table difference not detected")
	}
	if a.Equal(nil) || !(*Model)(nil).Equal(nil) {
		t.Error("nil handling")
	}
}

// Property: save/load round-trips arbitrary random models bit-exactly.
func TestSaveLoadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		types := rng.Intn(5) + 1
		n := rng.Intn(40) + 1
		bs := rng.Intn(4) + 1
		ut, err := NewUtilityTable(types, n, bs)
		if err != nil {
			return false
		}
		shares := make([][]float64, types)
		for ti := 0; ti < types; ti++ {
			shares[ti] = make([]float64, ut.Bins())
			for b := range shares[ti] {
				ut.Set(intToType(ti), b, rng.Intn(101))
				shares[ti][b] = rng.Float64() * 10
			}
		}
		m, err := NewModelFromTable(ut, shares)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return false
		}
		got, err := LoadModel(&buf)
		if err != nil {
			return false
		}
		return m.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Equal reports whether two models carry identical tables, shares and
// counters.
func (m *Model) Equal(o *Model) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.n != o.n || m.windows != o.windows || m.matches != o.matches {
		return false
	}
	if m.ut.types != o.ut.types || m.ut.n != o.ut.n || m.ut.binSize != o.ut.binSize {
		return false
	}
	for i := range m.ut.vals {
		if m.ut.vals[i] != o.ut.vals[i] {
			return false
		}
	}
	for i := range m.shares {
		if m.shares[i] != o.shares[i] {
			return false
		}
	}
	return true
}
