// Command topkcleand mirrors the daemon's lock shapes: its import path is
// the one in Config.LockPkgs, so lockscope runs here and nowhere else in
// the fixture.
package main

import (
	"net/http"
	"os"
	"sync"

	"fixture/internal/store"
	"fixture/internal/uncertain"
)

type server struct {
	mu      sync.RWMutex
	writeMu sync.Mutex
	dbs     map[string]*uncertain.Database
}

func main() {}

// createBad blocks while holding the registry lock — the PR 5 incident
// shape. The early unlocks sit inside the if bodies, so the section runs
// to the top-level Unlock and both calls are inside it.
func (s *server) createBad(name string) error {
	s.mu.Lock()
	if store.ReadersAttached(name) { // want lockscope "store.ReadersAttached"
		s.mu.Unlock()
		return nil
	}
	if err := os.WriteFile(name, nil, 0o644); err != nil { // want lockscope "os.WriteFile"
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	return store.Append(name, nil) // after the unlock: fine
}

// statsBad holds the read lock across an HTTP round trip.
func (s *server) statsBad() {
	s.mu.RLock()
	resp, err := http.Get("http://127.0.0.1/health") // want lockscope "net/http.Get"
	s.mu.RUnlock()
	if err == nil {
		resp.Body.Close()
	}
}

// snapshotBad defers the unlock, so the section extends to the end of the
// function: the wire encode is still under the lock.
func (s *server) snapshotBad(name string) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return uncertain.EncodeWire(s.dbs[name]) // want lockscope "uncertain.EncodeWire"
}

// recordBad appends a database's wire form to a record header under the
// lock: the appending encoder is as blocking as EncodeWire.
func (s *server) recordBad(name string, hdr []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uncertain.AppendWire(hdr, s.dbs[name]) // want lockscope "uncertain.AppendWire"
}

// journal appends under writeMu, whose documented job is covering the
// append (WAL order == commit order): exempt by name.
func (s *server) journal(name string, rec []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return store.Append(name, rec)
}

// deferredWork builds a closure under the lock but runs it after: the
// literal's body is out of scope and the call sits past the unlock.
func (s *server) deferredWork(name string) error {
	s.mu.Lock()
	flush := func() error { return os.Remove(name) }
	s.mu.Unlock()
	return flush()
}

// allowedProbe demonstrates the reasoned escape hatch under a held lock.
func (s *server) allowedProbe(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:allow lockscope fixture: demonstrates a reasoned suppression under a held lock
	return store.ReadersAttached(name)
}
