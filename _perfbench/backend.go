package main

import "github.com/probdb/topkclean/internal/store"

// tracedBackend wraps the durable store's byte-level backend, recording a
// span around each write the store makes and counting the bytes it hands
// down: the WAL append, the fsync and the checkpoint write.
type tracedBackend struct {
	store.Backend
	tr       *tracer
	walBytes int64
}

func (b *tracedBackend) AppendRecord(rec []byte) error {
	sp := b.tr.begin("store.append")
	err := b.Backend.AppendRecord(rec)
	b.tr.end(sp)
	b.walBytes += int64(len(rec))
	return err
}

func (b *tracedBackend) Sync() error {
	sp := b.tr.begin("store.fsync")
	err := b.Backend.Sync()
	b.tr.end(sp)
	return err
}

func (b *tracedBackend) WriteCheckpoint(data []byte, version uint64) error {
	sp := b.tr.begin("store.checkpoint")
	err := b.Backend.WriteCheckpoint(data, version)
	b.tr.end(sp)
	return err
}
