//go:build !unix

package storage

// mapDevice has no anonymous mapping to offer here: the device is heap
// memory, as it was on every platform before.
func mapDevice(n int64) (data []byte, mapped bool) { return make([]byte, n), false }

func unmapDevice([]byte) {}
