package whynot

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

func TestApproxStoreSaveLoadRoundTrip(t *testing.T) {
	products := randProducts(300, 2024)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}))
	store := must(e.BuildApproxStoreCtx(context.Background(), products[:50], 7, 0))
	if store.Len() != 50 {
		t.Fatalf("store Len = %d", store.Len())
	}

	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadApproxStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.K != 7 || back.SortDim != 0 || back.Len() != 50 {
		t.Fatalf("round trip lost metadata: %+v", back)
	}
	for _, c := range products[:50] {
		want, _ := store.Corners(c.ID)
		got, ok := back.Corners(c.ID)
		if !ok || !reflect.DeepEqual(want, got) {
			t.Fatalf("corners for %d differ after round trip", c.ID)
		}
	}

	// The loaded store produces identical safe regions.
	q := products[7].Point.Clone()
	q[0] += 0.5
	rsl := must(e.DB.ReverseSkylineCtx(context.Background(), products, q))
	if len(rsl) > 0 {
		a := must(e.ApproxSafeRegionCtx(context.Background(), q, rsl, store))
		b := must(e.ApproxSafeRegionCtx(context.Background(), q, rsl, back))
		if len(a) != len(b) {
			t.Fatalf("safe regions differ: %d vs %d rects", len(a), len(b))
		}
	}
}

func TestLoadApproxStoreErrors(t *testing.T) {
	if _, err := LoadApproxStore(strings.NewReader("not gob")); err == nil {
		t.Fatal("garbage input must fail")
	}
	if _, err := LoadApproxStore(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must fail")
	}
}

func TestBuildApproxStoreParallelMatchesSerial(t *testing.T) {
	products := randProducts(400, 2025)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}))
	serial := must(e.BuildApproxStoreCtx(context.Background(), products[:120], 5, 0))
	for _, workers := range []int{-1, 1, 4} {
		parallel := must(e.BuildApproxStoreCtx(exec.WithWorkers(context.Background(), workers), products[:120], 5, 0))
		if parallel.Len() != serial.Len() {
			t.Fatalf("workers=%d: Len %d vs %d", workers, parallel.Len(), serial.Len())
		}
		for _, c := range products[:120] {
			want, _ := serial.Corners(c.ID)
			got, ok := parallel.Corners(c.ID)
			if !ok || !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d: corners differ for customer %d", workers, c.ID)
			}
		}
	}
	// Empty customer list is fine.
	if got := must(e.BuildApproxStoreCtx(exec.WithWorkers(context.Background(), 4), nil, 5, 0)); got.Len() != 0 {
		t.Fatal("empty build must yield an empty store")
	}
}

// TestApproxStoreChecksum: every single-byte corruption of a v2 store must be
// rejected — that is the whole point of the CRC trailer. Field validation
// alone cannot catch a bit flip inside a plausible coordinate.
func TestApproxStoreChecksum(t *testing.T) {
	products := randProducts(60, 99)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}))
	store := must(e.BuildApproxStoreCtx(context.Background(), products[:12], 3, 0))
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	for i := range valid {
		mutated := append([]byte{}, valid...)
		mutated[i] ^= 0x01
		if _, err := LoadApproxStore(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("byte %d flipped, load still succeeded", i)
		}
	}
	// Truncating the trailer is also corruption.
	if _, err := LoadApproxStore(bytes.NewReader(valid[:len(valid)-2])); err == nil {
		t.Fatal("truncated trailer accepted")
	}
}

// TestApproxStoreV1Compat: a legacy v1 file — no trailer, version field 1 —
// no longer loads; it fails with the unsupported-version error, and so does
// one with trailing data.
func TestApproxStoreV1Compat(t *testing.T) {
	products := randProducts(60, 100)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}))
	store := must(e.BuildApproxStoreCtx(context.Background(), products[:12], 3, 0))
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()

	// Reconstruct the v1 encoding: strip the CRC trailer, patch the version.
	v1 := append([]byte{}, v2[:len(v2)-4]...)
	v1[4], v1[5] = 1, 0
	for _, data := range [][]byte{v1, append(v1, 0)} {
		_, err := LoadApproxStore(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
			t.Fatalf("v1 store: err = %v, want unsupported version 1", err)
		}
	}
}
