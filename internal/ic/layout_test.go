package ic

import (
	"testing"
	"unsafe"
)

// TestLayoutSizes pins the sizes of the per-site and per-dependent
// structures a resident program and its record keep one of per site: a
// field added or reordered carelessly grows every cached program.
func TestLayoutSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"SiteInfo", unsafe.Sizeof(SiteInfo{}), 40},
		{"Slot", unsafe.Sizeof(Slot{}), 40},
		{"CIDescriptor", unsafe.Sizeof(CIDescriptor{}), 24},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}
