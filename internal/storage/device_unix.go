//go:build unix

package storage

import "syscall"

// mapDevice returns n zero bytes outside the Go heap: an anonymous
// private mapping, committed page by page as it is first written. When
// the kernel refuses the mapping (or n is not a length it could have)
// the bytes come from the heap instead and mapped is false.
func mapDevice(n int64) (data []byte, mapped bool) {
	if n > 0 && int64(int(n)) == n {
		b, err := syscall.Mmap(-1, 0, int(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err == nil {
			return b, true
		}
	}
	return make([]byte, n), false
}

// unmapDevice gives a mapDevice mapping back to the kernel. Unmapping
// exactly the range Mmap returned cannot fail.
func unmapDevice(b []byte) { _ = syscall.Munmap(b) }
