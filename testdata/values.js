// Value semantics regression script: number-to-string, string-to-number,
// typeof, truthiness, equality and the arithmetic/relational fast paths,
// printed through objects whose property loads go through inline caches.
// The expected output, testdata/values.out, is node's. Every line is
// one string, so console.log prints it the same way in both engines.

function Cell(label, value) {
  this.label = label;
  this.value = value;
}

function show(cell) {
  var v = cell.value;
  console.log(cell.label + " | " + typeof v + " | " + String(v) + " | " + (v ? "truthy" : "falsy") + " | " + Number(v));
}

var negZero = -0;
var cells = [
  new Cell("undefined", undefined),
  new Cell("null", null),
  new Cell("true", true),
  new Cell("false", false),
  new Cell("zero", 0),
  new Cell("negative zero", negZero),
  new Cell("nan", 0 / 0),
  new Cell("inf", 1 / 0),
  new Cell("-inf", -1 / 0),
  new Cell("int", 42),
  new Cell("2^31", 2147483648),
  new Cell("2^53", 9007199254740992),
  new Cell("1234567.5", 1234567.5),
  new Cell("0.00001", 0.00001),
  new Cell("0.000001", 0.000001),
  new Cell("1e-7", 1e-7),
  new Cell("third*1e-5", (1 / 3) * 1e-5),
  new Cell("1e20", 1e20),
  new Cell("1e21", 1e21),
  new Cell("-1.25e25", -1.25e25),
  new Cell("123e-20", 123e-20),
  new Cell("0.1+0.2", 0.1 + 0.2),
  new Cell("empty", ""),
  new Cell("space 42", " 42 "),
  new Cell("hex", "0x10"),
  new Cell("neg hex", "-0x10"),
  new Cell("binary", "0b101"),
  new Cell("octal", "0o17"),
  new Cell("leading zero", "017"),
  new Cell("underscore", "1_000"),
  new Cell("hex float", "0x1p4"),
  new Cell("inf word", "inf"),
  new Cell("infinity word", "infinity"),
  new Cell("Infinity", "Infinity"),
  new Cell("-Infinity", "-Infinity"),
  new Cell("bom", "﻿5"),
  new Cell("nbsp", " 5"),
  new Cell("dot five", ".5"),
  new Cell("five dot", "5."),
  new Cell("exp", "1e3"),
  new Cell("bad exp", "1e"),
  new Cell("word", "bogus"),
  new Cell("array", [1, "x", null]),
  new Cell("empty array", []),
  new Cell("one array", [5]),
  new Cell("object", {})
];

for (var i = 0; i < cells.length; i++) {
  show(cells[i]);
}

// Strings built by slicing and concatenation compare by content.
var hello = "hello world";
var tail = hello.substring(6);
var built = "wor" + "ld";
console.log([tail === built, tail == built, tail < "x", "" === hello.substring(11)].join(" "));

// Mixed-kind equality.
console.log([null == undefined, null === undefined, 1 == "1", 1 === "1", true == 1, false == "", "0x10" == 16, "-0x10" == -16].join(" "));
console.log([negZero === 0, 0 / 0 === 0 / 0, [5] == 5, [] == 0, {} == "[object Object]"].join(" "));

// The all-number fast paths and their slow neighbours.
var sum = 0;
var text = "";
for (var j = 0; j < 10; j++) {
  sum = sum + j * 0.5;
  if (j < 5) {
    text = text + j;
  }
  if (j >= 8) {
    text = text + "!";
  }
}
console.log([sum, text, 1 + "2", "3" + 4, 5 + true, null + 1, "b" > "a", "10" < "9", "10" < 9, 2 <= 2, 3 >= 4].join(" "));
console.log([1 / 3, -1 / 3, 100 / 3, 1e21 / 7, 1 / 1e7, -negZero, negZero + "", [negZero, 1e-7, 0.5]].join(" "));
