package circuit

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// WriteQASM serializes the circuit as OpenQASM 2.0 using a single quantum
// register named q. SWAP gates are emitted as the swap mnemonic (declared
// via include "qelib1.inc", as Qiskit does).
func WriteQASM(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "OPENQASM 2.0;")
	fmt.Fprintln(bw, `include "qelib1.inc";`)
	fmt.Fprintf(bw, "qreg q[%d];\n", c.NumQubits)
	for _, g := range c.Gates {
		switch g.Kind {
		case CX:
			fmt.Fprintf(bw, "cx q[%d],q[%d];\n", g.Q0, g.Q1)
		case CZ:
			fmt.Fprintf(bw, "cz q[%d],q[%d];\n", g.Q0, g.Q1)
		case Swap:
			fmt.Fprintf(bw, "swap q[%d],q[%d];\n", g.Q0, g.Q1)
		case H:
			fmt.Fprintf(bw, "h q[%d];\n", g.Q0)
		case X:
			fmt.Fprintf(bw, "x q[%d];\n", g.Q0)
		case RZ:
			fmt.Fprintf(bw, "rz(%s) q[%d];\n", strconv.FormatFloat(g.Param, 'g', -1, 64), g.Q0)
		default:
			return fmt.Errorf("circuit: cannot serialize gate kind %v", g.Kind)
		}
	}
	return bw.Flush()
}

// QASMString returns the OpenQASM 2.0 text of the circuit.
func QASMString(c *Circuit) string {
	var b strings.Builder
	if err := WriteQASM(&b, c); err != nil {
		panic(err) // strings.Builder never fails; only unknown kinds do
	}
	return b.String()
}

// maxQASMLine caps the length of one QASM line. The scanner's buffer
// starts small and doubles up to this size as long lines demand.
const maxQASMLine = 16 * 1024 * 1024

// ParseQASM reads the OpenQASM 2.0 subset produced by WriteQASM (plus
// whitespace/comment tolerance): OPENQASM/include headers, a single qreg,
// optional creg (ignored), and the gates cx, cz, swap, h, x, rz. Barriers
// and measurements are ignored. This is sufficient to round-trip QUBIKOS
// benchmark files and to import externally generated circuits that use the
// same vocabulary.
//
// Keywords and gate names match case-insensitively under strings.ToLower,
// so its Unicode mappings count: "İnclude" is an include. Parsing works
// on the scanner's bytes in one pass, copying no line or statement into
// a string.
func ParseQASM(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxQASMLine)
	var p qasmParser
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if i := indexComment(line); i >= 0 {
			line = line[:i]
		}
		// Statements may share a line; split on ';'.
		for len(line) > 0 {
			stmt := line
			if i := bytes.IndexByte(line, ';'); i >= 0 {
				stmt, line = line[:i], line[i+1:]
			} else {
				line = nil
			}
			if stmt = trim(stmt); len(stmt) == 0 {
				continue
			}
			if err := p.statement(stmt); err != nil {
				return nil, fmt.Errorf("qasm line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.c == nil {
		return nil, fmt.Errorf("qasm: no qreg declaration found")
	}
	return p.c, nil
}

// qasmParser is ParseQASM's state between statements: the circuit, nil
// until the qreg declaration, and the register's name.
type qasmParser struct {
	c       *Circuit
	regName string
}

// ignoredKeywords start the statements ParseQASM skips.
var ignoredKeywords = []string{"openqasm", "include", "creg", "barrier", "measure"}

func (p *qasmParser) statement(stmt []byte) error {
	for _, kw := range ignoredKeywords {
		if _, ok := lowerPrefix(stmt, kw); ok {
			return nil
		}
	}
	if _, ok := lowerPrefix(stmt, "qreg"); ok {
		// Only ASCII letters lower to q, r, e and g, so the keyword is
		// exactly four bytes.
		rest := trim(stmt[len("qreg"):])
		open := bytes.IndexByte(rest, '[')
		close := bytes.IndexByte(rest, ']')
		if open < 0 || close < open {
			return fmt.Errorf("malformed qreg %q", stmt)
		}
		n, ok := atoi(trim(rest[open+1 : close]))
		if !ok || n < 0 {
			return fmt.Errorf("malformed qreg size in %q", stmt)
		}
		if p.c != nil {
			return fmt.Errorf("multiple qreg declarations (only one supported)")
		}
		p.c = New(n)
		p.regName = string(trim(rest[:open]))
		return nil
	}
	if p.c == nil {
		return fmt.Errorf("gate before qreg declaration: %q", stmt)
	}
	// Gate statement: name[(params)] operand[, operand].
	name, rest := stmt, []byte(nil)
	if sp := indexNameEnd(stmt); sp >= 0 {
		name, rest = stmt[:sp], trim(stmt[sp:])
	}
	param := 0.0
	if len(rest) > 0 && rest[0] == '(' {
		end := bytes.IndexByte(rest, ')')
		if end < 0 {
			return fmt.Errorf("unterminated parameter list in %q", stmt)
		}
		v, err := parseAngle(rest[1:end])
		if err != nil {
			return fmt.Errorf("bad parameter in %q: %w", stmt, err)
		}
		param = v
		rest = trim(rest[end+1:])
	}
	var ops [2]int
	n, err := p.operands(rest, &ops)
	if err != nil {
		return fmt.Errorf("%q: %w", stmt, err)
	}
	var g Gate
	switch {
	case lowerIs(name, "cx"), lowerIs(name, "cnot"):
		if n != 2 {
			return fmt.Errorf("cx needs 2 operands, got %d", n)
		}
		g = NewCX(ops[0], ops[1])
	case lowerIs(name, "cz"):
		if n != 2 {
			return fmt.Errorf("cz needs 2 operands, got %d", n)
		}
		g = Gate{Kind: CZ, Q0: ops[0], Q1: ops[1]}
	case lowerIs(name, "swap"):
		if n != 2 {
			return fmt.Errorf("swap needs 2 operands, got %d", n)
		}
		g = NewSwap(ops[0], ops[1])
	case lowerIs(name, "h"):
		if n != 1 {
			return fmt.Errorf("h needs 1 operand, got %d", n)
		}
		g = NewH(ops[0])
	case lowerIs(name, "x"):
		if n != 1 {
			return fmt.Errorf("x needs 1 operand, got %d", n)
		}
		g = NewX(ops[0])
	case lowerIs(name, "rz"):
		if n != 1 {
			return fmt.Errorf("rz needs 1 operand, got %d", n)
		}
		g = NewRZ(ops[0], param)
	default:
		return fmt.Errorf("unsupported gate %q", strings.ToLower(string(name)))
	}
	return p.c.Append(g)
}

// indexComment returns the index of the first "//" in line, or -1.
func indexComment(line []byte) int {
	for i := 0; ; i++ {
		j := bytes.IndexByte(line[i:], '/')
		if j < 0 {
			return -1
		}
		if i += j; i+1 < len(line) && line[i+1] == '/' {
			return i
		}
	}
}

// trim is bytes.TrimSpace, returning at once when b neither starts nor
// ends with a space or a non-ASCII byte, as every statement and operand
// WriteQASM emits does.
func trim(b []byte) []byte {
	if len(b) > 0 && b[0] > ' ' && b[0] < utf8.RuneSelf && b[len(b)-1] > ' ' && b[len(b)-1] < utf8.RuneSelf {
		return b
	}
	return bytes.TrimSpace(b)
}

// indexNameEnd returns the index of the first space, tab or '(' in stmt,
// which ends a gate name, or -1.
func indexNameEnd(stmt []byte) int {
	for i, ch := range stmt {
		if ch == ' ' || ch == '\t' || ch == '(' {
			return i
		}
	}
	return -1
}

// lowerPrefix reports whether strings.ToLower(string(b)) starts with the
// lowercase ASCII word w, and how many bytes of b the match spans. It
// lowers b rune by rune with unicode.ToLower, as strings.ToLower does, so
// U+0130 matches 'i' and U+212A matches 'k'; invalid UTF-8 matches
// nothing.
func lowerPrefix(b []byte, w string) (int, bool) {
	n := 0
	for i := 0; i < len(w); i++ {
		if n == len(b) {
			return 0, false
		}
		if ch := b[n]; ch < utf8.RuneSelf {
			if 'A' <= ch && ch <= 'Z' {
				ch += 'a' - 'A'
			}
			if ch != w[i] {
				return 0, false
			}
			n++
			continue
		}
		r, size := utf8.DecodeRune(b[n:])
		if unicode.ToLower(r) != rune(w[i]) {
			return 0, false
		}
		n += size
	}
	return n, true
}

// lowerIs reports whether strings.ToLower(string(b)) == w for a lowercase
// ASCII word w.
func lowerIs(b []byte, w string) bool {
	n, ok := lowerPrefix(b, w)
	return ok && n == len(b)
}

func parseAngle(s []byte) (float64, error) {
	// Accept plain floats and the common "pi/k" forms Qiskit emits.
	const pi = 3.141592653589793
	s = trim(s)
	neg := false
	if len(s) > 0 && s[0] == '-' {
		neg, s = true, trim(s[1:])
	}
	var v float64
	switch {
	case string(s) == "pi":
		v = pi
	case bytes.HasPrefix(s, []byte("pi/")):
		d, err := strconv.ParseFloat(string(s[3:]), 64)
		if err != nil {
			return 0, err
		}
		v = pi / d
	default:
		d, err := strconv.ParseFloat(string(s), 64)
		if err != nil {
			return 0, err
		}
		v = d
	}
	if neg {
		v = -v
	}
	if math.IsNaN(v) {
		// Text carries no NaN sign or payload; canonicalize so a parsed
		// angle always survives WriteQASM → ParseQASM bit for bit.
		v = math.NaN()
	}
	return v, nil
}

// operands parses the comma-separated operand list s, checking every
// operand, and returns how many there are. The first two land in ops.
func (p *qasmParser) operands(s []byte, ops *[2]int) (int, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("missing operands")
	}
	n := 0
	for more := true; more; n++ {
		// One scan finds the operand's end and its first '[' and ']'.
		// Neither bracket is a space, so trimming the operand would not
		// change which ones these are.
		end, open, close := len(s), -1, -1
		for i, ch := range s {
			if ch == ',' {
				end = i
				break
			}
			if ch == '[' && open < 0 {
				open = i
			}
			if ch == ']' && close < 0 {
				close = i
			}
		}
		part := s[:end]
		if more = end < len(s); more {
			s = s[end+1:]
		}
		if open < 0 || close < open {
			return 0, fmt.Errorf("malformed operand %q", trim(part))
		}
		if name := trim(part[:open]); p.regName != "" && string(name) != p.regName {
			return 0, fmt.Errorf("operand register %q does not match declared %q", name, p.regName)
		}
		idx, ok := atoi(trim(part[open+1 : close]))
		if !ok {
			return 0, fmt.Errorf("malformed operand index %q", trim(part))
		}
		if idx < 0 || idx >= p.c.NumQubits {
			return 0, fmt.Errorf("operand %q out of range [0,%d)", trim(part), p.c.NumQubits)
		}
		if n < len(ops) {
			ops[n] = idx
		}
	}
	return n, nil
}

// atoi is strconv.Atoi without the string conversion: an optional sign,
// then one or more decimal digits, within the range of int.
func atoi(b []byte) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	limit := uint64(1) << (strconv.IntSize - 1) // |math.MinInt|
	if !neg {
		limit--
	}
	var v uint64
	for _, ch := range b {
		if ch < '0' || ch > '9' || v > (limit-uint64(ch-'0'))/10 {
			return 0, false
		}
		v = v*10 + uint64(ch-'0')
	}
	if neg {
		return -int(v), true
	}
	return int(v), true
}
