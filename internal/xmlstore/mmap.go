package xmlstore

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

// ErrSnapshotClosed reports use of a snapshot mapping (or a corpus or
// document built over one) after Close. Every layer above returns this same
// value, so errors.Is works regardless of which entry point hit the closed
// store.
var ErrSnapshotClosed = errors.New("xmlstore: snapshot is closed")

// Mapping is a read-only view of a snapshot file. On Unix-like hosts (and
// without the nommap build tag) the view is an mmap of the file: opening
// costs the map syscall only, bytes fault in on first touch, and the page
// cache — not the Go heap — holds the data, so corpora larger than RAM stay
// queryable. On other targets, or under -tags nommap, the same type reads
// the whole file into memory; callers cannot tell the difference except
// through Mapped.
//
// The mapping owns the file's resources: the fd is closed right after
// mapping (the mapping itself keeps the pages alive), and Close releases
// the pages. After Close, Bytes returns ErrSnapshotClosed; slices handed
// out before Close must no longer be used (the same contract as os.File —
// closing a store while queries are in flight is a caller bug, not a
// checked condition).
type Mapping struct {
	mu     sync.RWMutex
	data   []byte
	mapped bool // data is an mmap view (munmap on Close), not a heap copy
	closed bool
	path   string
}

// MapFile maps the file at path read-only. The file's length is fixed at
// map time; a file that later shrinks on disk faults (SIGBUS) a mapped
// reader of the pages past its new end on Unix. Snapshots are immutable by
// contract, and the open-time length validation (OpenCorpus) rejects files
// already shorter than their offset table claims; a reader that may touch
// pages after open runs under ArmFaults and CatchFault, which turn the fault
// into an error.
func MapFile(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Mapping{path: path}, nil
	}
	if size != int64(int(size)) || size < 0 {
		return nil, fmt.Errorf("xmlstore: snapshot %s (%d bytes) exceeds the address space", path, size)
	}
	data, mapped, err := mapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("xmlstore: map %s: %w", path, err)
	}
	return &Mapping{data: data, mapped: mapped, path: path}, nil
}

// Bytes returns the mapped view, or ErrSnapshotClosed after Close. The
// slice aliases the mapping and is invalidated by Close.
func (m *Mapping) Bytes() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrSnapshotClosed
	}
	return m.data, nil
}

// Len returns the mapped length in bytes (0 after Close).
func (m *Mapping) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}

// Mapped reports whether the view is demand-paged (true) or a read-all heap
// copy (false: nommap build, unsupported OS, or an empty file).
func (m *Mapping) Mapped() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.mapped
}

// Path returns the file the mapping was opened from.
func (m *Mapping) Path() string { return m.path }

// Close unmaps the view and poisons the mapping. A second Close returns
// ErrSnapshotClosed.
func (m *Mapping) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrSnapshotClosed
	}
	m.closed = true
	data, wasMapped := m.data, m.mapped
	m.data = nil
	m.mapped = false
	if wasMapped && data != nil {
		return unmap(data)
	}
	return nil
}

// Resident reports how many bytes of the mapped range are currently in
// physical memory, summed from /proc/self/smaps. ok is false when the view
// is not an mmap, already closed, or the platform has no smaps (non-Linux).
// This is the bench harness's page-touch meter: after a single-member query
// it shows how little of the snapshot the query actually faulted in.
func (m *Mapping) Resident() (int64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed || !m.mapped || len(m.data) == 0 || runtime.GOOS != "linux" {
		return 0, false
	}
	start := uintptr(unsafe.Pointer(&m.data[0]))
	end := start + uintptr(len(m.data))
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var total int64
	inRange := false
	found := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		// Map header lines read "start-end perms offset dev inode [path]";
		// attribute lines read "Key:  value kB". A first field that parses
		// as two hex numbers around a dash is a header.
		head := line
		if sp := strings.IndexByte(line, ' '); sp >= 0 {
			head = line[:sp]
		}
		if dash := strings.IndexByte(head, '-'); dash > 0 {
			lo, err1 := strconv.ParseUint(head[:dash], 16, 64)
			hi, err2 := strconv.ParseUint(head[dash+1:], 16, 64)
			if err1 == nil && err2 == nil {
				inRange = uintptr(lo) < end && uintptr(hi) > start
				found = found || inRange
				continue
			}
		}
		if inRange && strings.HasPrefix(line, "Rss:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					total += kb * 1024
				}
			}
		}
	}
	if sc.Err() != nil || !found {
		return 0, false
	}
	return total, true
}

// ArmFaults makes a memory fault on the calling goroutine — a read of a
// mapped page whose file was truncated under the mapping — panic instead of
// killing the process, and returns the previous setting for CatchFault. Arm
// it once around a whole member load or member run, never per tuple:
//
//	defer xmlstore.CatchFault(xmlstore.ArmFaults(), &err)
func ArmFaults() bool { return debug.SetPanicOnFault(true) }

// CatchFault, deferred, restores the setting ArmFaults returned and turns a
// fault's panic into *err, a *FaultError. Any other panic goes on.
func CatchFault(prev bool, err *error) {
	debug.SetPanicOnFault(prev)
	if r := recover(); r != nil {
		fault, ok := r.(interface{ Addr() uintptr })
		if !ok {
			panic(r)
		}
		*err = &FaultError{Addr: fault.Addr()}
	}
}

// FaultError is a memory fault CatchFault caught: a read at Addr of a mapped
// page the snapshot file no longer backs. Index.SnapshotMember tells which
// member's bytes the address is in.
type FaultError struct{ Addr uintptr }

func (e *FaultError) Error() string {
	return fmt.Sprintf("xmlstore: fault at %#x reading a mapped snapshot (was the file truncated?)", e.Addr)
}
