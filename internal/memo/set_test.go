package memo

import (
	"fmt"
	"testing"
)

func TestSetInsert(t *testing.T) {
	var s Set
	if !s.Insert([]byte("a")) {
		t.Fatal("first insert of \"a\" reported duplicate")
	}
	if s.Insert([]byte("a")) {
		t.Fatal("second insert of \"a\" reported new")
	}
	if !s.Insert([]byte("b")) {
		t.Fatal("insert of \"b\" reported duplicate")
	}
	if !s.Insert([]byte{}) {
		t.Fatal("insert of empty key reported duplicate")
	}
	if s.Insert(nil) {
		t.Fatal("nil and empty key must be the same element")
	}
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

// TestSetManyKeys drives enough keys through the set to exercise its growth,
// and verifies exact membership semantics throughout.
func TestSetManyKeys(t *testing.T) {
	var s Set
	const n = 5000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if !s.Insert(k) {
			t.Fatalf("fresh key %q reported duplicate", k)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if s.Insert(k) {
			t.Fatalf("repeated key %q reported new", k)
		}
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
}

// TestSetCollisionSafety verifies that near-identical long keys — the
// adversarial case for a lazy prefix compare or a hash-only membership
// test — are kept distinct.
func TestSetCollisionSafety(t *testing.T) {
	var s Set
	a := make([]byte, 1024)
	b := make([]byte, 1024)
	b[1023] = 1
	if !s.Insert(a) || !s.Insert(b) {
		t.Fatal("distinct keys reported duplicate")
	}
	if s.Insert(a) || s.Insert(b) {
		t.Fatal("known keys reported new")
	}
}

func BenchmarkSetInsertHit(b *testing.B) {
	var s Set
	key := []byte("some-representative-signature-of-realistic-length----")
	s.Insert(key)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Insert(key) {
			b.Fatal("hit reported new")
		}
	}
}
