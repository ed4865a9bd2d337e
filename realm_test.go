package ricjs_test

import (
	"fmt"
	"sync"
	"testing"

	"ricjs"
)

// TestRealmIsolation runs 8 engines at once. Each patches
// Array.prototype, Object.prototype, Math and a global, waits until every
// engine has patched, then reads them all back: each must see exactly its
// own patches, and an engine built afterwards none of them. Every engine
// starts from the one builtin template, so under -race this also proves
// no engine writes state another engine reads.
func TestRealmIsolation(t *testing.T) {
	const engines = 8
	patch := func(i int) string {
		return fmt.Sprintf(`
			Array.prototype.mark = %[1]d;
			Object.prototype.tag = "e%[1]d";
			Math.floor = function (x) { return %[1]d; };
			Math.seven = %[1]d * 7;
			var shared = %[1]d;
			window.own%[1]d = true;`, i)
	}
	const read = `print([].mark, ({}).tag, Math.floor(2.5), Math.seven, shared,
		typeof own0, typeof own1, typeof own2, typeof own3,
		typeof own4, typeof own5, typeof own6, typeof own7);`
	want := func(i int) string {
		out := fmt.Sprintf("%d e%d %d %d %d", i, i, i, i*7, i)
		for j := 0; j < engines; j++ {
			if j == i {
				out += " boolean"
			} else {
				out += " undefined"
			}
		}
		return out + "\n"
	}

	cache := ricjs.NewCodeCache()
	var patched, wg sync.WaitGroup
	patched.Add(engines)
	outs := make([]string, engines)
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := ricjs.NewEngine(ricjs.Options{Cache: cache})
			err := e.Run(fmt.Sprintf("patch%d.js", i), patch(i))
			patched.Done()
			if err != nil {
				t.Errorf("engine %d: patch: %v", i, err)
				return
			}
			patched.Wait()
			if err := e.Run("read.js", read); err != nil {
				t.Errorf("engine %d: read: %v", i, err)
				return
			}
			outs[i] = e.Output()
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		if out != want(i) {
			t.Errorf("engine %d printed %q, want %q", i, out, want(i))
		}
	}

	fresh := ricjs.NewEngine(ricjs.Options{Cache: cache})
	if err := fresh.Run("pristine.js", `print([].mark, ({}).tag, Math.floor(2.5), Math.seven, typeof shared);`); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.Output(), "undefined undefined 2 undefined undefined\n"; got != want {
		t.Errorf("fresh engine printed %q, want %q", got, want)
	}
}
