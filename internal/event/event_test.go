package event

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEventSize pins the packed layout: events are held by value in
// every batch, queue slot and window ring, so a field order that adds
// padding costs memory on every one of them. The packed size is the sum
// of the fields (Seq, TS, the Vals slice header, Type, Kind) rounded up
// to the struct's alignment: 48 bytes on 64-bit targets.
func TestEventSize(t *testing.T) {
	var e Event
	sum := unsafe.Sizeof(e.Seq) + unsafe.Sizeof(e.TS) + unsafe.Sizeof(e.Vals) +
		unsafe.Sizeof(e.Type) + unsafe.Sizeof(e.Kind)
	align := unsafe.Alignof(e)
	want := (sum + align - 1) / align * align
	if got := unsafe.Sizeof(e); got != want {
		t.Errorf("sizeof(Event) = %d bytes, want %d (no padding between fields)", got, want)
	}
}

func TestTimeSeconds(t *testing.T) {
	tests := []struct {
		name string
		in   Time
		want float64
	}{
		{"zero", 0, 0},
		{"one second", Second, 1},
		{"one minute", Minute, 60},
		{"millis", 250 * Millisecond, 0.25},
		{"micros", 5 * Microsecond, 0.000005},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.in.Seconds(); got != tt.want {
				t.Errorf("Seconds() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTimeString(t *testing.T) {
	if got := (2 * Second).String(); got != "2.000000s" {
		t.Errorf("String() = %q", got)
	}
}

func TestEventVal(t *testing.T) {
	e := Event{Vals: []float64{1.5, -2}}
	tests := []struct {
		name string
		idx  int
		want float64
	}{
		{"first", 0, 1.5},
		{"second", 1, -2},
		{"out of range", 2, 0},
		{"negative", -1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := e.Val(tt.idx); got != tt.want {
				t.Errorf("Val(%d) = %v, want %v", tt.idx, got, tt.want)
			}
		})
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 7, Type: 3, Kind: KindRising, TS: Second}
	want := "ev{seq=7 type=3 kind=rising ts=1.000000s}"
	if got := e.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindNone, "none"},
		{KindRising, "rising"},
		{KindFalling, "falling"},
		{KindPossession, "possession"},
		{KindDefend, "defend"},
		{KindPosition, "position"},
		{Kind(200), "kind(200)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema("price", "change")
	if s.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", s.Len())
	}
	if i, ok := s.Index("change"); !ok || i != 1 {
		t.Errorf("Index(change) = %d,%v", i, ok)
	}
	if _, ok := s.Index("missing"); ok {
		t.Error("Index(missing) should not exist")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "price" {
		t.Errorf("Names() = %v", names)
	}
	// Mutating the returned slice must not affect the schema.
	names[0] = "mutated"
	if got := s.Names()[0]; got != "price" {
		t.Errorf("schema mutated through Names(): %q", got)
	}
}

func TestRegistryRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Register("IBM")
	b := r.Register("AAPL")
	if a == b {
		t.Fatal("distinct names must get distinct ids")
	}
	if again := r.Register("IBM"); again != a {
		t.Errorf("re-registering returned %d, want %d", again, a)
	}
	if r.Len() != 2 {
		t.Errorf("Len() = %d, want 2", r.Len())
	}
}

func TestRegistryLookupAndName(t *testing.T) {
	r := NewRegistry()
	id := r.Register("GOOG")
	if got, ok := r.Lookup("GOOG"); !ok || got != id {
		t.Errorf("Lookup = %d,%v", got, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("Lookup(nope) should fail")
	}
	if got := r.Name(id); got != "GOOG" {
		t.Errorf("Name(%d) = %q", id, got)
	}
	if got := r.Name(Type(99)); got != "type(99)" {
		t.Errorf("Name(99) = %q", got)
	}
	if got := r.Name(NoType); got != "type(-1)" {
		t.Errorf("Name(NoType) = %q", got)
	}
}

func TestRegistryRegisterAll(t *testing.T) {
	r := NewRegistry()
	ids := r.RegisterAll("a", "b", "c")
	if len(ids) != 3 {
		t.Fatalf("got %d ids", len(ids))
	}
	for i, id := range ids {
		if int(id) != i {
			t.Errorf("ids[%d] = %d, want dense ids", i, id)
		}
	}
	names := r.Names()
	if len(names) != 3 || names[2] != "c" {
		t.Errorf("Names() = %v", names)
	}
	sorted := r.SortedNames()
	if sorted[0] != "a" || sorted[2] != "c" {
		t.Errorf("SortedNames() = %v", sorted)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := string(rune('a' + i%26))
				id := r.Register(name)
				if got, ok := r.Lookup(name); !ok || got != id {
					t.Errorf("concurrent lookup mismatch for %q", name)
					return
				}
				_ = r.Name(id)
			}
		}()
	}
	wg.Wait()
	if r.Len() != 26 {
		t.Errorf("Len() = %d, want 26", r.Len())
	}
}

// Property: ids are dense 0..n-1 in registration order regardless of the
// names registered.
func TestRegistryDenseIDsProperty(t *testing.T) {
	f := func(names []string) bool {
		r := NewRegistry()
		seen := make(map[string]Type)
		for _, n := range names {
			id := r.Register(n)
			if prev, ok := seen[n]; ok {
				if id != prev {
					return false
				}
				continue
			}
			if int(id) != len(seen) {
				return false
			}
			seen[n] = id
		}
		return r.Len() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseKind(t *testing.T) {
	// Every bundled kind round-trips through its String form.
	for _, k := range []Kind{KindNone, KindRising, KindFalling, KindPossession, KindDefend, KindPosition, Kind(77)} {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	for _, bad := range []string{"", "Rising", "kind(-1)", "kind(256)", "kind(x)", "unknown"} {
		if _, ok := ParseKind(bad); ok {
			t.Errorf("ParseKind(%q) accepted", bad)
		}
	}
}
