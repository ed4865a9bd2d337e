package ricjs_test

import (
	"fmt"
	"log"

	"ricjs"
)

// The canonical pipeline: Initial run, extraction, Reuse run.
func Example() {
	src := `
		function Point(x, y) { this.x = x; this.y = y; }
		var p = new Point(3, 4);
		var q = new Point(5, 12);
		print(p.x + p.y + q.x + q.y);
	`
	cache := ricjs.NewCodeCache()

	initial := ricjs.NewEngine(ricjs.Options{Cache: cache})
	if err := initial.Run("point.js", src); err != nil {
		log.Fatal(err)
	}
	record := initial.ExtractRecord("point.js")

	reuse := ricjs.NewEngine(ricjs.Options{Cache: cache, Record: record})
	if err := reuse.Run("point.js", src); err != nil {
		log.Fatal(err)
	}
	fmt.Print(reuse.Output())
	fmt.Println("misses averted:", reuse.Stats().MissesSaved > 0)
	// Output:
	// 24
	// misses averted: true
}

// Records serialize for persistence and reload in later processes.
func ExampleDecodeRecord() {
	engine := ricjs.NewEngine(ricjs.Options{})
	if err := engine.Run("lib.js", "var cfg = {mode: 'fast'}; print(cfg.mode);"); err != nil {
		log.Fatal(err)
	}
	data := engine.ExtractRecord("lib.js").Encode()

	restored, err := ricjs.DecodeRecord(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(restored.Label())
	// Output: lib.js
}

// MaxSteps turns runaway scripts into clean errors.
func ExampleOptions_maxSteps() {
	engine := ricjs.NewEngine(ricjs.Options{MaxSteps: 50_000})
	err := engine.Run("spin.js", "while (true) {}")
	fmt.Println(err != nil)
	// Output: true
}

// Engine statistics expose the paper's measurements programmatically.
func ExampleEngine_Stats() {
	engine := ricjs.NewEngine(ricjs.Options{})
	if err := engine.Run("s.js", "var o = {a: 1, b: 2}; print(o.a + o.b);"); err != nil {
		log.Fatal(err)
	}
	s := engine.Stats()
	fmt.Println("had misses:", s.ICMisses > 0)
	fmt.Println("created hidden classes:", s.HCCreated > 0)
	// Output:
	// had misses: true
	// created hidden classes: true
}
