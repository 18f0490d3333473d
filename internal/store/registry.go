package store

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Driver opens backends of one kind by path — the hidalgo-style registry
// shape (ByName(typ).OpenPath(path)) that lets the daemon pick its storage
// with a flag and lets external KV backends register themselves from their
// own packages. What "path" means is the driver's business: a directory
// for "file", an arbitrary process-local name for "mem".
type Driver struct {
	// Open opens (creating if needed) the backend at path for the single
	// writer.
	Open func(path string) (Backend, error)

	// OpenReadOnly opens an existing backend at path for a tailing reader:
	// mutating methods return ErrReadOnly, torn tails are left in place,
	// and any number of readers coexist with the writer. Nil when the
	// driver cannot serve readers alongside a writer.
	OpenReadOnly func(path string) (Backend, error)
}

var (
	driversMu sync.RWMutex
	drivers   = map[string]Driver{}
)

// Register makes a driver available under name. It panics on a duplicate
// or incomplete registration, like database/sql.Register — registration is
// init-time wiring, not a runtime condition.
func Register(name string, d Driver) {
	driversMu.Lock()
	defer driversMu.Unlock()
	if d.Open == nil {
		panic(fmt.Sprintf("store: Register(%q) with nil Open", name))
	}
	if _, dup := drivers[name]; dup {
		panic(fmt.Sprintf("store: Register(%q) called twice", name))
	}
	drivers[name] = d
}

// ByName returns the driver registered under name.
func ByName(name string) (Driver, bool) {
	driversMu.RLock()
	defer driversMu.RUnlock()
	d, ok := drivers[name]
	return d, ok
}

// Drivers lists the registered driver names, sorted.
func Drivers() []string {
	driversMu.RLock()
	defer driversMu.RUnlock()
	names := make([]string, 0, len(drivers))
	for name := range drivers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// OpenBackend opens a writer backend via the named driver.
func OpenBackend(typ, path string) (Backend, error) {
	d, ok := ByName(typ)
	if !ok {
		return nil, fmt.Errorf("store: unknown backend %q (registered: %v)", typ, Drivers())
	}
	return d.Open(path)
}

// OpenBackendReadOnly opens a read-only (tailing) backend via the named
// driver.
func OpenBackendReadOnly(typ, path string) (Backend, error) {
	d, ok := ByName(typ)
	if !ok {
		return nil, fmt.Errorf("store: unknown backend %q (registered: %v)", typ, Drivers())
	}
	if d.OpenReadOnly == nil {
		return nil, fmt.Errorf("store: backend %q does not support read-only opens", typ)
	}
	return d.OpenReadOnly(path)
}

func init() {
	Register("file", Driver{
		Open:         func(path string) (Backend, error) { return OpenDir(path) },
		OpenReadOnly: func(path string) (Backend, error) { return OpenDirReadOnly(path) },
	})
	Register("mem", Driver{
		Open:         openMemShared,
		OpenReadOnly: openMemSharedRO,
	})
}

// The "mem" driver keys process-global MemBackends by path, so a writer
// and its readers (opened independently, the way the daemon opens file
// stores) land on the same journal. Writer exclusion matches the file
// driver: one writer per path, any number of readers.
var (
	memStoresMu sync.Mutex
	memStores   = map[string]*memEntry{}
)

type memEntry struct {
	b      *MemBackend
	writer bool
}

func openMemShared(path string) (Backend, error) {
	memStoresMu.Lock()
	defer memStoresMu.Unlock()
	e := memStores[path]
	if e == nil {
		e = &memEntry{b: Mem()}
		memStores[path] = e
	}
	if e.writer {
		return nil, errLocked("mem:"+path, fmt.Errorf("writer already attached"))
	}
	e.writer = true
	e.b.DiscardPartial() // a fresh writer discards the torn tail, like OpenDir
	return &memHandle{MemBackend: e.b, entry: e}, nil
}

func openMemSharedRO(path string) (Backend, error) {
	memStoresMu.Lock()
	defer memStoresMu.Unlock()
	e := memStores[path]
	if e == nil {
		return nil, fmt.Errorf("store: mem backend %q does not exist", path)
	}
	return &memHandle{MemBackend: e.b, ro: true}, nil
}

// DropMem deletes every process-global journal the "mem" driver keeps at
// path or under it (path/...), as removing a store directory removes the
// stores nested in it, so the name can be re-created empty. Handles still
// open keep reading (and, for the writer, writing) their detached journal
// — "mem" models storage for tests and ephemeral tenants, not contended
// production deletes.
func DropMem(path string) { memUnder(path, true) }

// MemExists reports whether the "mem" driver keeps a journal at path or
// under it — the process-local counterpart of a store directory existing.
func MemExists(path string) bool { return memUnder(path, false) }

// memUnder reports whether any journal is keyed at path or under it, and
// deletes every such journal when drop is set.
func memUnder(path string, drop bool) (found bool) {
	memStoresMu.Lock()
	defer memStoresMu.Unlock()
	for p := range memStores {
		if p == path || strings.HasPrefix(p, path+string(filepath.Separator)) {
			found = true
			if drop {
				delete(memStores, p)
			}
		}
	}
	return found
}

// memHandle is one opener's view of a shared MemBackend: it releases the
// writer slot on Close and refuses writes when read-only.
type memHandle struct {
	*MemBackend
	entry *memEntry // writer handles only
	ro    bool
}

func (h *memHandle) AppendRecord(rec []byte) error {
	if h.ro {
		return ErrReadOnly
	}
	return h.MemBackend.AppendRecord(rec)
}

func (h *memHandle) WriteCheckpoint(data []byte, version uint64) error {
	if h.ro {
		return ErrReadOnly
	}
	return h.MemBackend.WriteCheckpoint(data, version)
}

func (h *memHandle) Sync() error {
	if h.ro {
		return ErrReadOnly
	}
	return h.MemBackend.Sync()
}

func (h *memHandle) Close() error {
	if h.entry != nil {
		memStoresMu.Lock()
		h.entry.writer = false
		h.entry = nil
		memStoresMu.Unlock()
	}
	return nil
}
