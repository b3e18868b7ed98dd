//go:build nommap || (!linux && !darwin)

package xmlstore

import (
	"io"
	"os"
)

// mapFile on targets without mmap support (or under -tags nommap) reads the
// whole file into the heap. Same interface, eager paging: the Mapping then
// behaves exactly like the read-all loader, which keeps every code path
// above this file portable.
func mapFile(f *os.File, _ int) ([]byte, bool, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, false, err
	}
	return data, false, nil
}

func unmap(data []byte) error { return nil }
