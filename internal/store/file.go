package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// FileBackend stores one database in one directory:
//
//	<dir>/wal.log                the record log, length+CRC framed
//	<dir>/wal.next               scratch for atomic WAL rotation
//	<dir>/checkpoint-<v>.ckpt    the checkpoint at version v (one frame)
//	<dir>/checkpoint.tmp         scratch for atomic checkpoint replacement
//	<dir>/writer.lock            flock target: exclusive, held by the writer
//	<dir>/reader.lock            flock target: shared, held by read-only openers
//
// Records and checkpoints are framed as
//
//	[4-byte little-endian payload length][4-byte CRC-32 (IEEE) of payload][payload]
//
// so a crash mid-append leaves a tail that fails the length or CRC check;
// OpenDir truncates such a tail before anything appends after it, while
// OpenDirReadOnly leaves it alone (the writer may still be appending it —
// a tailing reader just stops before it). The checkpoint is replaced
// atomically: write to checkpoint.tmp, fsync, rename over the versioned
// name, fsync the directory, then delete older checkpoints and rotate the
// WAL — the log is replaced by a fresh file (a new inode, hence a new
// journal generation) rather than truncated in place, so a tailing reader
// can never misread the replacement journal through a stale byte cursor.
// A crash between the checkpoint rename and the rotation leaves
// already-checkpointed records in the old log, which replay skips by
// version. Unknown files in the directory are ignored (the serving daemon
// keeps its tenant config alongside).
type FileBackend struct {
	dir  string
	wal  *os.File
	lock *os.File // writer.lock (exclusive) or reader.lock (shared)
	ro   bool
	gen  uint64 // local journal generation; bumps on rotation (writer) or detected rotation (reader)
}

const (
	walName        = "wal.log"
	walNext        = "wal.next"
	ckptPrefix     = "checkpoint-"
	ckptSuffix     = ".ckpt"
	ckptTmp        = "checkpoint.tmp"
	writerLockName = "writer.lock"
	readerLockName = "reader.lock"
	frameHdr       = 8 // 4-byte length + 4-byte CRC
)

// OpenDir opens (creating if needed) a file backend on dir for a single
// writer. A torn final WAL record — the signature of a crash mid-append —
// is truncated away here, so later appends never land after garbage.
// Writers are excluded from each other by an exclusive advisory lock on
// writer.lock (where the platform supports flock): a second writer — say,
// `topkclean query -store` against a directory a live daemon is journaling
// to — fails fast here instead of truncating or checkpointing the journal
// under the first. Read-only openers (OpenDirReadOnly) hold a shared lock
// on a different file and coexist with the writer, which is what makes a
// follower tailing a live leader possible. Locks die with their process,
// so crash recovery is unaffected.
func OpenDir(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir, writerLockName, true)
	if err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		lock.Close()
		return nil, err
	}
	b := &FileBackend{dir: dir, wal: wal, lock: lock}
	if err := b.truncateTorn(); err != nil {
		wal.Close()
		lock.Close()
		return nil, err
	}
	return b, nil
}

// OpenDirReadOnly opens an existing store directory for a tailing reader:
// the WAL is opened read-only, the torn tail (if any) is left in place,
// and a shared advisory lock on reader.lock marks the reader's presence —
// any number of readers coexist with each other and with the single
// writer. The mutating Backend methods return ErrReadOnly.
func OpenDirReadOnly(dir string) (*FileBackend, error) {
	wal, err := os.Open(filepath.Join(dir, walName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("store: %s holds no journal (not a store directory, or the leader has not created it yet): %w", dir, err)
		}
		return nil, err
	}
	lock, err := lockDir(dir, readerLockName, false)
	if err != nil {
		wal.Close()
		return nil, err
	}
	return &FileBackend{dir: dir, wal: wal, lock: lock, ro: true}, nil
}

// lockDir takes a non-blocking advisory lock (exclusive or shared) on a
// dedicated lock file inside dir. The lock file is separate from the WAL
// because the WAL rotates on checkpoint: a lock must outlive the inode it
// guards.
func lockDir(dir, name string, exclusive bool) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flockFile(f, exclusive); err != nil {
		f.Close()
		return nil, errLocked(dir, err)
	}
	return f, nil
}

// ReadersAttached reports whether any read-only opener currently holds the
// store directory (best-effort: flock-based, so it only sees readers on
// this machine). Destructive maintenance — deleting a tenant's storage —
// checks it to avoid unlinking a journal a follower is tailing.
func ReadersAttached(dir string) bool {
	f, err := os.OpenFile(filepath.Join(dir, readerLockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return false
	}
	defer f.Close()
	return flockFile(f, true) != nil
}

// errLocked explains a lost lock race.
func errLocked(dir string, err error) error {
	return fmt.Errorf("store: %s is already open for writing in another process (%v)", dir, err)
}

// truncateTorn scans the WAL for its valid prefix and truncates the rest.
// Writer-only: a reader must never shorten the journal under the writer.
func (b *FileBackend) truncateTorn() error {
	valid, _, err := b.scanFrom(0, nil)
	if err != nil {
		return err
	}
	fi, err := b.wal.Stat()
	if err != nil {
		return err
	}
	if fi.Size() > valid {
		if err := b.wal.Truncate(valid); err != nil {
			return err
		}
	}
	_, err = b.wal.Seek(valid, io.SeekStart)
	return err
}

// scanFrom reads frames from byte offset from, calling fn (if non-nil) on
// each payload, and returns the offset just past the last valid frame. A
// short or CRC-failing tail ends the scan without error — as does a length
// field larger than the bytes actually remaining, so a corrupted or
// still-being-written header is treated as a torn tail instead of driving
// a multi-GiB allocation. Reads go through an io.SectionReader, so the
// writer's append offset is never disturbed.
func (b *FileBackend) scanFrom(from int64, fn func([]byte) error) (next int64, n int, err error) {
	fi, err := b.wal.Stat()
	if err != nil {
		return from, 0, err
	}
	size := fi.Size()
	if from >= size {
		return from, 0, nil
	}
	r := io.NewSectionReader(b.wal, from, size-from)
	next = from
	var hdr [frameHdr]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return next, n, nil // clean EOF or torn header: valid prefix ends here
		}
		payloadLen := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(payloadLen) > size-next-frameHdr {
			return next, n, nil // length exceeds what is on disk: corrupt/torn header
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return next, n, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return next, n, nil // corrupted (or still-being-written) tail
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return next, n, err
			}
		}
		next += int64(frameHdr) + int64(payloadLen)
		n++
	}
}

// writeFrame writes one frame: the header, then the payload in place — a
// checkpoint is the whole database, and copying it behind a header would
// double the memory it takes. A crash between the two writes leaves a
// header whose length runs past the end of the file: a torn tail.
func writeFrame(f *os.File, payload []byte) error {
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	_, err := f.Write(payload)
	return err
}

// AppendRecord appends one framed record to the WAL. The write lands in
// the OS page cache; Sync makes it crash-durable.
func (b *FileBackend) AppendRecord(rec []byte) error {
	if b.ro {
		return ErrReadOnly
	}
	return writeFrame(b.wal, rec)
}

// Sync fsyncs the WAL.
func (b *FileBackend) Sync() error {
	if b.ro {
		return ErrReadOnly
	}
	return b.wal.Sync()
}

// TailRecords replays the complete records from byte cursor from; see
// Backend. A read-only backend refreshes its view first, so a journal the
// writer rotated since the last call is picked up (with a new generation).
func (b *FileBackend) TailRecords(from int64, fn func(rec []byte) error) (int64, error) {
	next, _, err := b.scanFrom(from, fn)
	return next, err
}

// JournalStat reports generation, end-of-journal cursor (the file size,
// torn tail included), and the newest checkpoint version. For read-only
// backends it also detects WAL rotation: when the path no longer names the
// inode this backend has open, the handle is swapped to the new journal
// and the generation bumps.
func (b *FileBackend) JournalStat() (JournalStat, error) {
	if b.ro {
		if err := b.refresh(); err != nil {
			return JournalStat{}, err
		}
	}
	fi, err := b.wal.Stat()
	if err != nil {
		return JournalStat{}, err
	}
	st := JournalStat{Gen: b.gen, Tail: fi.Size()}
	versions, err := b.checkpoints()
	if err != nil {
		return JournalStat{}, err
	}
	if len(versions) > 0 {
		st.CheckpointVersion = versions[len(versions)-1]
		st.HasCheckpoint = true
	}
	return st, nil
}

// refresh re-opens the WAL when the writer rotated it (checkpoint trim):
// the open handle pins the old inode, so comparing it against the path's
// current inode detects the swap exactly.
func (b *FileBackend) refresh() error {
	cur, err := os.Stat(filepath.Join(b.dir, walName))
	if err != nil {
		return err
	}
	fi, err := b.wal.Stat()
	if err != nil {
		return err
	}
	if os.SameFile(cur, fi) {
		return nil
	}
	f, err := os.Open(filepath.Join(b.dir, walName))
	if err != nil {
		return err
	}
	b.wal.Close()
	b.wal = f
	b.gen++
	return nil
}

// checkpoints lists the versioned checkpoint files, ascending by version.
func (b *FileBackend) checkpoints() ([]uint64, error) {
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return nil, err
	}
	var versions []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 10, 64)
		if err != nil {
			continue // not ours
		}
		versions = append(versions, v)
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	return versions, nil
}

func (b *FileBackend) ckptPath(version uint64) string {
	return filepath.Join(b.dir, fmt.Sprintf("%s%d%s", ckptPrefix, version, ckptSuffix))
}

// LoadCheckpoint reads the newest checkpoint file, verifying its frame.
func (b *FileBackend) LoadCheckpoint() ([]byte, uint64, bool, error) {
	versions, err := b.checkpoints()
	if err != nil || len(versions) == 0 {
		return nil, 0, false, err
	}
	version := versions[len(versions)-1]
	raw, err := os.ReadFile(b.ckptPath(version))
	if err != nil {
		return nil, 0, false, err
	}
	if len(raw) < frameHdr {
		return nil, 0, false, fmt.Errorf("%w: checkpoint %d truncated", ErrCorrupt, version)
	}
	size := binary.LittleEndian.Uint32(raw[0:4])
	sum := binary.LittleEndian.Uint32(raw[4:8])
	if int(size) != len(raw)-frameHdr || crc32.ChecksumIEEE(raw[frameHdr:]) != sum {
		return nil, 0, false, fmt.Errorf("%w: checkpoint %d fails its checksum", ErrCorrupt, version)
	}
	return raw[frameHdr:], version, true, nil
}

// WriteCheckpoint atomically replaces the checkpoint, then rotates the WAL
// to a fresh file. Rotation (rather than in-place truncation) gives the
// journal a new inode, which is how tailing read-only backends detect the
// trim: their stale byte cursors can never alias into the new journal's
// contents.
func (b *FileBackend) WriteCheckpoint(data []byte, version uint64) error {
	if b.ro {
		return ErrReadOnly
	}
	tmp := filepath.Join(b.dir, ckptTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	werr := writeFrame(f, data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	if err := os.Rename(tmp, b.ckptPath(version)); err != nil {
		return err
	}
	if err := syncDir(b.dir); err != nil {
		return err
	}
	// The checkpoint is durable; everything below is cleanup that recovery
	// tolerates losing to a crash (stale records replay and are skipped by
	// version; a leftover wal.next is overwritten by the next rotation).
	if old, err := b.checkpoints(); err == nil {
		for _, v := range old {
			if v < version {
				os.Remove(b.ckptPath(v))
			}
		}
	}
	next, err := os.OpenFile(filepath.Join(b.dir, walNext), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err := next.Sync(); err != nil {
		next.Close()
		return err
	}
	if err := os.Rename(filepath.Join(b.dir, walNext), filepath.Join(b.dir, walName)); err != nil {
		next.Close()
		return err
	}
	if err := syncDir(b.dir); err != nil {
		next.Close()
		return err
	}
	b.wal.Close()
	b.wal = next // the fd followed the rename: it is the new wal.log
	b.gen++
	return nil
}

// Close syncs (writers) and closes the WAL handle and the lock.
func (b *FileBackend) Close() error {
	var err error
	if !b.ro {
		err = b.wal.Sync()
	}
	if cerr := b.wal.Close(); err == nil {
		err = cerr
	}
	if b.lock != nil {
		if cerr := b.lock.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	// Some filesystems refuse fsync on directories; the rename itself is
	// still ordered on those, so don't fail the checkpoint over it.
	if err != nil && (errors.Is(err, os.ErrInvalid) || errors.Is(err, os.ErrPermission)) {
		return nil
	}
	return err
}
