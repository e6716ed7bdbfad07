package circuit

// This file keeps the string-level QASM parser that ParseQASM replaced,
// unchanged except for its names, as the reference FuzzParseQASM checks
// the one-pass parser against: the same accept/reject decision, the same
// error text and bit-identical gates on every input.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// refParseQASM reads the OpenQASM 2.0 subset produced by WriteQASM (plus
// whitespace/comment tolerance): OPENQASM/include headers, a single qreg,
// optional creg (ignored), and the gates cx, cz, swap, h, x, rz. Barriers
// and measurements are ignored. This is sufficient to round-trip QUBIKOS
// benchmark files and to import externally generated circuits that use the
// same vocabulary.
func refParseQASM(r io.Reader) (*Circuit, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var c *Circuit
	regName := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Statements may share a line; split on ';'.
		for _, stmt := range strings.Split(line, ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt == "" {
				continue
			}
			if err := refParseQASMStatement(stmt, &c, &regName); err != nil {
				return nil, fmt.Errorf("qasm line %d: %w", lineNo, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("qasm: no qreg declaration found")
	}
	return c, nil
}

func refParseQASMStatement(stmt string, c **Circuit, regName *string) error {
	lower := strings.ToLower(stmt)
	switch {
	case strings.HasPrefix(lower, "openqasm"), strings.HasPrefix(lower, "include"),
		strings.HasPrefix(lower, "creg"), strings.HasPrefix(lower, "barrier"),
		strings.HasPrefix(lower, "measure"):
		return nil
	case strings.HasPrefix(lower, "qreg"):
		rest := strings.TrimSpace(stmt[len("qreg"):])
		open := strings.Index(rest, "[")
		close := strings.Index(rest, "]")
		if open < 0 || close < open {
			return fmt.Errorf("malformed qreg %q", stmt)
		}
		name := strings.TrimSpace(rest[:open])
		n, err := strconv.Atoi(strings.TrimSpace(rest[open+1 : close]))
		if err != nil || n < 0 {
			return fmt.Errorf("malformed qreg size in %q", stmt)
		}
		if *c != nil {
			return fmt.Errorf("multiple qreg declarations (only one supported)")
		}
		*c = New(n)
		*regName = name
		return nil
	}
	if *c == nil {
		return fmt.Errorf("gate before qreg declaration: %q", stmt)
	}
	// Gate statement: name[(params)] operand[, operand].
	name := lower
	param := 0.0
	rest := ""
	if sp := strings.IndexAny(stmt, " \t("); sp >= 0 {
		name = strings.ToLower(stmt[:sp])
		rest = strings.TrimSpace(stmt[sp:])
	}
	if strings.HasPrefix(rest, "(") {
		end := strings.Index(rest, ")")
		if end < 0 {
			return fmt.Errorf("unterminated parameter list in %q", stmt)
		}
		p, err := refParseAngle(strings.TrimSpace(rest[1:end]))
		if err != nil {
			return fmt.Errorf("bad parameter in %q: %w", stmt, err)
		}
		param = p
		rest = strings.TrimSpace(rest[end+1:])
	}
	operands, err := refParseOperands(rest, *regName, (*c).NumQubits)
	if err != nil {
		return fmt.Errorf("%q: %w", stmt, err)
	}
	var g Gate
	switch name {
	case "cx", "cnot":
		if len(operands) != 2 {
			return fmt.Errorf("cx needs 2 operands, got %d", len(operands))
		}
		g = NewCX(operands[0], operands[1])
	case "cz":
		if len(operands) != 2 {
			return fmt.Errorf("cz needs 2 operands, got %d", len(operands))
		}
		g = Gate{Kind: CZ, Q0: operands[0], Q1: operands[1]}
	case "swap":
		if len(operands) != 2 {
			return fmt.Errorf("swap needs 2 operands, got %d", len(operands))
		}
		g = NewSwap(operands[0], operands[1])
	case "h":
		if len(operands) != 1 {
			return fmt.Errorf("h needs 1 operand, got %d", len(operands))
		}
		g = NewH(operands[0])
	case "x":
		if len(operands) != 1 {
			return fmt.Errorf("x needs 1 operand, got %d", len(operands))
		}
		g = NewX(operands[0])
	case "rz":
		if len(operands) != 1 {
			return fmt.Errorf("rz needs 1 operand, got %d", len(operands))
		}
		g = NewRZ(operands[0], param)
	default:
		return fmt.Errorf("unsupported gate %q", name)
	}
	return (*c).Append(g)
}

func refParseAngle(s string) (float64, error) {
	// Accept plain floats and the common "pi/k" forms Qiskit emits.
	const pi = 3.141592653589793
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, strings.TrimSpace(s[1:])
	}
	var v float64
	switch {
	case s == "pi":
		v = pi
	case strings.HasPrefix(s, "pi/"):
		d, err := strconv.ParseFloat(s[3:], 64)
		if err != nil {
			return 0, err
		}
		v = pi / d
	default:
		d, err := strconv.ParseFloat(s, 64)
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
		// angle always survives WriteQASM → refParseQASM bit for bit.
		v = math.NaN()
	}
	return v, nil
}

func refParseOperands(s, regName string, n int) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("missing operands")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		open := strings.Index(p, "[")
		close := strings.Index(p, "]")
		if open < 0 || close < open {
			return nil, fmt.Errorf("malformed operand %q", p)
		}
		name := strings.TrimSpace(p[:open])
		if regName != "" && name != regName {
			return nil, fmt.Errorf("operand register %q does not match declared %q", name, regName)
		}
		idx, err := strconv.Atoi(strings.TrimSpace(p[open+1 : close]))
		if err != nil {
			return nil, fmt.Errorf("malformed operand index %q", p)
		}
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("operand %q out of range [0,%d)", p, n)
		}
		out = append(out, idx)
	}
	return out, nil
}
