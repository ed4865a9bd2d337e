// Reference-output oracle: runs every <name>.js in the directory given as
// the first argument, each in a fresh node context with the engine's two
// host globals (`print` and `window`), and prints {name: output} as JSON.
// Called by `go run . --regen-oracle` from the benchmark directory.
'use strict';
const fs = require('fs');
const path = require('path');
const vm = require('vm');

const dir = process.argv[2];
const out = {};
for (const file of fs.readdirSync(dir).filter((f) => f.endsWith('.js')).sort()) {
  let text = '';
  const print = (...args) => { text += args.map(String).join(' ') + '\n'; };
  const ctx = vm.createContext({ print, console: { log: print } });
  vm.runInContext('var window = globalThis;', ctx);
  vm.runInContext(fs.readFileSync(path.join(dir, file), 'utf8'), ctx, { filename: file });
  out[file.slice(0, -3)] = text;
}
process.stdout.write(JSON.stringify(out));
