//go:build (linux || darwin) && !nommap

package xmlstore

import (
	"os"
	"syscall"
)

// mapFile maps size bytes of f read-only. The returned view stays valid
// after f is closed; the second result reports that the view is a real
// mapping (unmap on Close).
func mapFile(f *os.File, size int) ([]byte, bool, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

func unmap(data []byte) error {
	return syscall.Munmap(data)
}
