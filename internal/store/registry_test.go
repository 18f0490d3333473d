package store

import (
	"errors"
	"path/filepath"
	"testing"
)

func TestRegistryLookup(t *testing.T) {
	names := Drivers()
	want := map[string]bool{"file": false, "mem": false}
	for _, n := range names {
		if _, seen := want[n]; seen {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("driver %q not registered (have %v)", n, names)
		}
	}
	if _, ok := ByName("file"); !ok {
		t.Fatal("ByName(file) not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) found something")
	}
	if _, err := OpenBackend("nope", "x"); err == nil {
		t.Fatal("OpenBackend with unknown driver succeeded")
	}
	if _, err := OpenBackendReadOnly("nope", "x"); err == nil {
		t.Fatal("OpenBackendReadOnly with unknown driver succeeded")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { Register("file", Driver{Open: func(string) (Backend, error) { return nil, nil }}) })
	mustPanic("nil Open", func() { Register("broken", Driver{}) })
}

func TestMemDriverSharedJournal(t *testing.T) {
	const path = "TestMemDriverSharedJournal"
	w, err := OpenBackend("mem", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRecord([]byte("r0")); err != nil {
		t.Fatal(err)
	}
	// A reader opened independently by path sees the writer's journal.
	r, err := OpenBackendReadOnly("mem", path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := r.TailRecords(0, func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("reader saw %d records, want 1", n)
	}
	if err := r.AppendRecord([]byte("r1")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("mem read-only handle accepted a write: %v", err)
	}
	// Writer exclusion and release.
	if _, err := OpenBackend("mem", path); err == nil {
		t.Fatal("second mem writer attached")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenBackend("mem", path)
	if err != nil {
		t.Fatalf("writer slot not released on Close: %v", err)
	}
	w2.Close()
	// A read-only open of a path that was never created fails.
	if _, err := OpenBackendReadOnly("mem", "never-created"); err == nil {
		t.Fatal("read-only open of a nonexistent mem backend succeeded")
	}
}

// TestMemDropAndExistsUnderPath: the mem driver's DropMem and MemExists
// act on a path the way directory removal and existence do — the journal
// at the path and every journal nested under it, but not a sibling whose
// name merely starts with the same characters.
func TestMemDropAndExistsUnderPath(t *testing.T) {
	root := filepath.Join("TestMemDropAndExistsUnderPath", "x")
	for _, p := range []string{root, filepath.Join(root, "shard-0"), filepath.Join(root, "meta"), root + ".y"} {
		b, err := OpenBackend("mem", p)
		if err != nil {
			t.Fatal(err)
		}
		b.Close()
	}
	t.Cleanup(func() { DropMem(root + ".y") })
	if !MemExists(root) || !MemExists(filepath.Join(root, "meta")) {
		t.Fatal("MemExists misses a journal at or under the path")
	}
	DropMem(root)
	if MemExists(root) {
		t.Fatal("DropMem left a journal at or under the path")
	}
	if !MemExists(root + ".y") {
		t.Fatal("DropMem removed a sibling path sharing the prefix")
	}
}
