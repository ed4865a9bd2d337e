package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"ricjs"
	"ricjs/internal/progen"
	"ricjs/internal/workloads"
)

// The reference outputs come from node, never from the engine under test;
// inputs.sha256 pins the program sources they were generated from.
//
//go:embed testdata/expected testdata/inputs.sha256
var testdata embed.FS

const (
	// corpusSize is the number of progen programs pool-churn draws from.
	corpusSize = 400
	// corpusSeed fixes the progen corpus, so its reference outputs can be
	// committed; the run's seed chooses which programs arrive and when.
	corpusSeed = 0xC0DE_0000
	// corpusPin names the progen corpus in inputs.sha256.
	corpusPin = "progen-corpus"
)

// input is one program a session runs: its record key, the script name
// the engine sees, the source, and the reference output.
type input struct {
	key     string
	scripts []ricjs.SessionScript
	want    string
	// corpus marks a progen corpus program rather than a profile.
	corpus bool
}

func (in *input) src() string    { return in.scripts[0].Src }
func (in *input) script() string { return in.scripts[0].Name }

// inputSet is every program the benchmark runs.
type inputSet struct {
	profiles []*input // workloads.Profiles, in its order
	corpus   []*input // the progen corpus
}

// generateInputs builds the programs without their reference outputs.
func generateInputs() *inputSet {
	set := &inputSet{}
	for _, p := range workloads.Profiles {
		set.profiles = append(set.profiles, &input{
			key:     p.Name,
			scripts: []ricjs.SessionScript{{Name: p.Script, Src: p.Source()}},
		})
	}
	for i := 0; i < corpusSize; i++ {
		key := fmt.Sprintf("progen-%03d", i)
		set.corpus = append(set.corpus, &input{
			key:     key,
			scripts: []ricjs.SessionScript{{Name: key + ".js", Src: progen.New(corpusSeed + uint64(i)).Program()}},
			corpus:  true,
		})
	}
	return set
}

// pins returns the sha256 of every profile source and of the corpus.
func (set *inputSet) pins() map[string]string {
	out := make(map[string]string, len(set.profiles)+1)
	for _, in := range set.profiles {
		sum := sha256.Sum256([]byte(in.src()))
		out[in.key] = hex.EncodeToString(sum[:])
	}
	h := sha256.New()
	for _, in := range set.corpus {
		h.Write([]byte(in.src()))
		h.Write([]byte{0})
	}
	out[corpusPin] = hex.EncodeToString(h.Sum(nil))
	return out
}

// loadInputs generates the programs, refuses to run if any source drifted
// from its pin, and attaches the committed reference outputs.
func loadInputs() (*inputSet, error) {
	set := generateInputs()
	pinned, err := readPins()
	if err != nil {
		return nil, err
	}
	got := set.pins()
	var drift []string
	for name, sum := range got {
		if pinned[name] != sum {
			drift = append(drift, name)
		}
	}
	for name := range pinned {
		if _, ok := got[name]; !ok {
			drift = append(drift, name)
		}
	}
	if len(drift) > 0 {
		sort.Strings(drift)
		return nil, fmt.Errorf("input drift: %v differ from testdata/inputs.sha256 (regenerate deliberately with --regen-oracle)", drift)
	}
	for _, in := range set.profiles {
		want, err := testdata.ReadFile("testdata/expected/" + in.key + ".out")
		if err != nil {
			return nil, fmt.Errorf("reference output: %w", err)
		}
		in.want = string(want)
	}
	raw, err := testdata.ReadFile("testdata/expected/progen.json")
	if err != nil {
		return nil, fmt.Errorf("reference output: %w", err)
	}
	var outs []string
	if err := json.Unmarshal(raw, &outs); err != nil {
		return nil, fmt.Errorf("reference output progen.json: %w", err)
	}
	if len(outs) != len(set.corpus) {
		return nil, fmt.Errorf("reference output progen.json: %d outputs for %d programs", len(outs), len(set.corpus))
	}
	for i, in := range set.corpus {
		in.want = outs[i]
	}
	return set, nil
}

// readPins parses testdata/inputs.sha256 ("<hex>  <name>" per line).
func readPins() (map[string]string, error) {
	raw, err := testdata.ReadFile("testdata/inputs.sha256")
	if err != nil {
		return nil, err
	}
	pins := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			return nil, fmt.Errorf("inputs.sha256: malformed line %q", sc.Text())
		}
		pins[name] = sum
	}
	return pins, nil
}

// regenOracle rewrites testdata/expected and testdata/inputs.sha256 from
// the current generators: it writes every program to a scratch directory
// and runs them all in one node process (testdata/oracle.js). Run it from
// the benchmark directory, only when the inputs are meant to change.
func regenOracle(scratch string) error {
	set := generateInputs()
	dir := filepath.Join(scratch, "oracle-inputs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	all := append(append([]*input(nil), set.profiles...), set.corpus...)
	for _, in := range all {
		if err := os.WriteFile(filepath.Join(dir, in.key+".js"), []byte(in.src()), 0o644); err != nil {
			return err
		}
	}
	out, err := exec.Command("node", filepath.Join("testdata", "oracle.js"), dir).Output()
	if err != nil {
		return fmt.Errorf("node oracle: %w", err)
	}
	var got map[string]string
	if err := json.Unmarshal(out, &got); err != nil {
		return fmt.Errorf("node oracle output: %w", err)
	}
	for _, in := range set.profiles {
		if err := os.WriteFile(filepath.Join("testdata", "expected", in.key+".out"), []byte(got[in.key]), 0o644); err != nil {
			return err
		}
	}
	outs := make([]string, len(set.corpus))
	for i, in := range set.corpus {
		outs[i] = got[in.key]
	}
	raw, err := json.MarshalIndent(outs, "", "\t")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join("testdata", "expected", "progen.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	pins := set.pins()
	names := make([]string, 0, len(pins))
	for name := range pins {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s  %s\n", pins[name], name)
	}
	return os.WriteFile(filepath.Join("testdata", "inputs.sha256"), []byte(b.String()), 0o644)
}
