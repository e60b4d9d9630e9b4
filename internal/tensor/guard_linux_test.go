package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedArena maps room for max float64s followed by a page no access
// is allowed to, and returns a function that hands out the last n of
// them: a load or store one element past any slice it returns faults.
// Every call returns the tail of the same memory.
func guardedArena(t testing.TB, max int) func(n int) []float64 {
	page := syscall.Getpagesize()
	size := (max*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // a test's scratch: nothing to do about a failure
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	floats := unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(mem))), size/8)
	return func(n int) []float64 { return floats[len(floats)-n:] }
}
