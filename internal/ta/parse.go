package ta

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dbm"
)

// Parse builds a network from the compact textual format below, a line-based
// dialect in the spirit of TChecker's input language:
//
//	# comment
//	system:radio
//	clock:x
//	int:rec:0:0:8
//	chan:hurry:urgent-broadcast
//	process:RAD
//	location:RAD:idle{initial}
//	location:RAD:busy{invariant: x<=5; committed}
//	edge:RAD:idle:busy{guard: rec>0; sync: hurry!; do: rec=rec-1, x=0}
//
// Channel kinds: binary, urgent, broadcast, urgent-broadcast. Location
// attributes: initial, urgent, committed, invariant. Edge attributes:
// guard (conjunction with &&; clock atoms are recognized by their left
// operand), sync (chan! or chan?), do (comma-separated assignments; an
// assignment to a clock is a reset).
func Parse(input string) (*Network, error) {
	return ParseWithHook(input, nil)
}

// ParseWithHook parses like Parse but invokes hook on the fully built,
// not-yet-finalized network — the place to register extrapolation horizons
// (EnsureMaxConst) or other pre-finalization tweaks.
func ParseWithHook(input string, hook func(*Network) error) (*Network, error) {
	p := &parser{
		clocks: map[string]Clock{},
		vars:   map[string]IntVar{},
		chans:  map[string]Channel{},
		procs:  map[string]*Process{},
		inits:  map[string]bool{},
	}
	for lineNo, raw := range strings.Split(input, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("ta: line %d: %w", lineNo+1, err)
		}
	}
	if p.net == nil {
		return nil, fmt.Errorf("ta: missing system declaration")
	}
	for name, proc := range p.procs {
		if !p.inits[name] {
			return nil, fmt.Errorf("ta: process %s has no initial location", proc.Name)
		}
	}
	if hook != nil {
		if err := hook(p.net); err != nil {
			return nil, err
		}
	}
	if err := p.net.Finalize(); err != nil {
		return nil, err
	}
	return p.net, nil
}

type parser struct {
	net    *Network
	clocks map[string]Clock
	vars   map[string]IntVar
	chans  map[string]Channel
	procs  map[string]*Process
	inits  map[string]bool
}

// line dispatches one declaration.
func (p *parser) line(line string) error {
	head, rest, _ := strings.Cut(line, ":")
	head = strings.TrimSpace(head)
	if p.net == nil && head != "system" {
		return fmt.Errorf("first declaration must be system:<name>")
	}
	switch head {
	case "system":
		if p.net != nil {
			return fmt.Errorf("duplicate system declaration")
		}
		p.net = NewNetwork(strings.TrimSpace(rest))
		return nil
	case "clock":
		name := strings.TrimSpace(rest)
		if err := p.freshName(name); err != nil {
			return err
		}
		p.clocks[name] = p.net.AddClock(name)
		return nil
	case "int":
		parts := strings.Split(rest, ":")
		if len(parts) != 4 {
			return fmt.Errorf("int needs name:init:min:max")
		}
		name := strings.TrimSpace(parts[0])
		if err := p.freshName(name); err != nil {
			return err
		}
		nums := make([]int64, 3)
		for i, s := range parts[1:] {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return fmt.Errorf("int %s: bad number %q", name, s)
			}
			nums[i] = v
		}
		p.vars[name] = p.net.AddVar(name, nums[0], nums[1], nums[2])
		return nil
	case "chan":
		parts := strings.Split(rest, ":")
		if len(parts) != 2 {
			return fmt.Errorf("chan needs name:kind")
		}
		name := strings.TrimSpace(parts[0])
		if err := p.freshName(name); err != nil {
			return err
		}
		var kind ChanKind
		switch strings.TrimSpace(parts[1]) {
		case "binary":
			kind = Binary
		case "urgent":
			kind = BinaryUrgent
		case "broadcast":
			kind = Broadcast
		case "urgent-broadcast":
			kind = BroadcastUrgent
		default:
			return fmt.Errorf("chan %s: unknown kind %q", name, parts[1])
		}
		p.chans[name] = p.net.AddChan(name, kind)
		return nil
	case "process":
		name := strings.TrimSpace(rest)
		if _, dup := p.procs[name]; dup {
			return fmt.Errorf("duplicate process %q", name)
		}
		p.procs[name] = p.net.AddProcess(name)
		return nil
	case "location":
		return p.location(rest)
	case "edge":
		return p.edge(rest)
	}
	return fmt.Errorf("unknown declaration %q", head)
}

func (p *parser) freshName(name string) error {
	if name == "" {
		return fmt.Errorf("empty name")
	}
	if _, ok := p.clocks[name]; ok {
		return fmt.Errorf("name %q already used", name)
	}
	if _, ok := p.vars[name]; ok {
		return fmt.Errorf("name %q already used", name)
	}
	if _, ok := p.chans[name]; ok {
		return fmt.Errorf("name %q already used", name)
	}
	return nil
}

// splitBody separates "a:b:c{attrs}" into the colon fields and the
// attribute body.
func splitBody(rest string) (fields []string, body string, err error) {
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		if !strings.HasSuffix(strings.TrimSpace(rest), "}") {
			return nil, "", fmt.Errorf("unterminated attribute block")
		}
		body = strings.TrimSpace(rest[i+1 : strings.LastIndexByte(rest, '}')])
		rest = rest[:i]
	}
	for _, f := range strings.Split(rest, ":") {
		fields = append(fields, strings.TrimSpace(f))
	}
	return fields, body, nil
}

func (p *parser) location(rest string) error {
	fields, body, err := splitBody(rest)
	if err != nil {
		return err
	}
	if len(fields) != 2 {
		return fmt.Errorf("location needs process:name{...}")
	}
	proc := p.procs[fields[0]]
	if proc == nil {
		return fmt.Errorf("unknown process %q", fields[0])
	}
	kind := Normal
	initial := false
	var invariant []Constraint
	for _, attr := range splitAttrs(body) {
		key, val, _ := strings.Cut(attr, ":")
		switch strings.TrimSpace(key) {
		case "":
		case "initial":
			initial = true
		case "urgent":
			kind = UrgentLoc
		case "committed":
			kind = Committed
		case "invariant":
			cs, _, err := p.parseGuard(val)
			if err != nil {
				return fmt.Errorf("invariant: %w", err)
			}
			invariant = cs
		default:
			return fmt.Errorf("unknown location attribute %q", key)
		}
	}
	id := proc.AddLocation(fields[1], kind, invariant...)
	if initial {
		if p.inits[fields[0]] {
			return fmt.Errorf("process %s has two initial locations", fields[0])
		}
		proc.Init = id
		p.inits[fields[0]] = true
	}
	return nil
}

func (p *parser) edge(rest string) error {
	fields, body, err := splitBody(rest)
	if err != nil {
		return err
	}
	if len(fields) != 3 {
		return fmt.Errorf("edge needs process:src:dst{...}")
	}
	proc := p.procs[fields[0]]
	if proc == nil {
		return fmt.Errorf("unknown process %q", fields[0])
	}
	src := proc.LocByName(fields[1])
	dst := proc.LocByName(fields[2])
	if src < 0 || dst < 0 {
		return fmt.Errorf("unknown location in edge %s -> %s", fields[1], fields[2])
	}
	e := Edge{Src: src, Dst: dst}
	for _, attr := range splitAttrs(body) {
		key, val, _ := strings.Cut(attr, ":")
		switch strings.TrimSpace(key) {
		case "":
		case "guard":
			cs, g, err := p.parseGuard(val)
			if err != nil {
				return fmt.Errorf("guard: %w", err)
			}
			e.ClockGuard = cs
			e.Guard = g
		case "sync":
			val = strings.TrimSpace(val)
			if val == "" {
				return fmt.Errorf("empty sync")
			}
			dir := Emit
			switch val[len(val)-1] {
			case '!':
			case '?':
				dir = Recv
			default:
				return fmt.Errorf("sync %q must end in ! or ?", val)
			}
			ch, ok := p.chans[val[:len(val)-1]]
			if !ok {
				return fmt.Errorf("unknown channel %q", val[:len(val)-1])
			}
			e.Sync = Sync{Chan: ch.ID, Dir: dir}
		case "do":
			resets, frees, upd, err := p.parseDo(val)
			if err != nil {
				return fmt.Errorf("do: %w", err)
			}
			e.Resets = resets
			e.Frees = frees
			e.Update = upd
		default:
			return fmt.Errorf("unknown edge attribute %q", key)
		}
	}
	proc.AddEdge(e)
	return nil
}

// splitAttrs splits the attribute body on semicolons.
func splitAttrs(body string) []string {
	if body == "" {
		return nil
	}
	return strings.Split(body, ";")
}

// parseGuard parses a conjunction of comparisons, sorting each atom into a
// clock constraint (left operand names a clock) or a data guard.
func (p *parser) parseGuard(s string) ([]Constraint, Guard, error) {
	var cs []Constraint
	var gs []Guard
	for _, atom := range strings.Split(s, "&&") {
		atom = strings.TrimSpace(atom)
		if atom == "" {
			continue
		}
		lhs, op, rhs, err := splitCmp(atom)
		if err != nil {
			return nil, nil, err
		}
		if cls, isClock := p.clockOperand(lhs); isClock {
			c, err := p.clockConstraints(cls, op, rhs)
			if err != nil {
				return nil, nil, err
			}
			cs = append(cs, c...)
			continue
		}
		le, err := p.parseExpr(lhs)
		if err != nil {
			return nil, nil, err
		}
		re, err := p.parseExpr(rhs)
		if err != nil {
			return nil, nil, err
		}
		cop, err := cmpOp(op)
		if err != nil {
			return nil, nil, err
		}
		gs = append(gs, Cmp(le, cop, re))
	}
	var g Guard
	if len(gs) == 1 {
		g = gs[0]
	} else if len(gs) > 1 {
		g = And(gs...)
	}
	return cs, g, nil
}

// clockOperand recognizes "x" or "x-y" with x (and y) declared clocks.
func (p *parser) clockOperand(lhs string) ([2]Clock, bool) {
	if c, ok := p.clocks[lhs]; ok {
		return [2]Clock{c, {ID: 0}}, true
	}
	if a, b, found := strings.Cut(lhs, "-"); found {
		ca, okA := p.clocks[strings.TrimSpace(a)]
		cb, okB := p.clocks[strings.TrimSpace(b)]
		if okA && okB {
			return [2]Clock{ca, cb}, true
		}
	}
	return [2]Clock{}, false
}

// clockConstraints builds the DBM constraints for "x ⟨op⟩ rhs" or
// "x-y ⟨op⟩ rhs" where rhs is an integer literal or a variable name
// (dynamic bound, single-clock form only).
func (p *parser) clockConstraints(cls [2]Clock, op, rhs string) ([]Constraint, error) {
	x, y := cls[0], cls[1]
	if v, ok := p.vars[strings.TrimSpace(rhs)]; ok {
		if y.ID != 0 {
			return nil, fmt.Errorf("dynamic bounds on clock differences are not supported")
		}
		switch op {
		case "<=":
			return []Constraint{CLEVar(x, v)}, nil
		case ">=":
			return []Constraint{CGEVar(x, v)}, nil
		case "==":
			return CEqVar(x, v), nil
		}
		return nil, fmt.Errorf("dynamic clock bound needs <=, >= or ==")
	}
	k, err := clockConstant(rhs)
	if err != nil {
		return nil, fmt.Errorf("clock comparison needs an integer or variable bound: %w", err)
	}
	if y.ID != 0 {
		switch op {
		case "<=":
			return []Constraint{DiffLE(x, y, k)}, nil
		case "<":
			return []Constraint{DiffLT(x, y, k)}, nil
		case ">=":
			return []Constraint{DiffLE(y, x, -k)}, nil
		case ">":
			return []Constraint{DiffLT(y, x, -k)}, nil
		case "==":
			return []Constraint{DiffLE(x, y, k), DiffLE(y, x, -k)}, nil
		}
		return nil, fmt.Errorf("unknown operator %q", op)
	}
	switch op {
	case "<=":
		return []Constraint{CLE(x, k)}, nil
	case "<":
		return []Constraint{CLT(x, k)}, nil
	case ">=":
		return []Constraint{CGE(x, k)}, nil
	case ">":
		return []Constraint{CGT(x, k)}, nil
	case "==":
		return CEq(x, k), nil
	}
	return nil, fmt.Errorf("unknown operator %q", op)
}

// clockConstant parses the integer literal of a clock constraint or reset,
// which must not exceed dbm.MaxConstant in magnitude.
func clockConstant(s string) (int64, error) {
	s = strings.TrimSpace(s)
	k, err := strconv.ParseInt(s, 10, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0, fmt.Errorf("got %q", s)
	}
	if err != nil || k > dbm.MaxConstant || k < -dbm.MaxConstant {
		return 0, fmt.Errorf("clock constant %s is beyond the largest magnitude, %d", s, int64(dbm.MaxConstant))
	}
	return k, nil
}

// parseDo parses comma-separated assignments; clock targets become resets
// (constant right-hand side) or frees (right-hand side "_").
func (p *parser) parseDo(s string) ([]Reset, []ClockID, Update, error) {
	var resets []Reset
	var frees []ClockID
	var ups []Update
	for _, stmt := range strings.Split(s, ",") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		lhs, rhs, found := strings.Cut(stmt, "=")
		if !found {
			return nil, nil, nil, fmt.Errorf("assignment needs '=': %q", stmt)
		}
		lhs = strings.TrimSpace(lhs)
		rhs = strings.TrimSpace(rhs)
		if c, ok := p.clocks[lhs]; ok {
			if rhs == "_" {
				frees = append(frees, c.ID)
				continue
			}
			v, err := clockConstant(rhs)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("clock reset %q needs a constant: %w", stmt, err)
			}
			resets = append(resets, Reset{Clock: c.ID, Value: v})
			continue
		}
		v, ok := p.vars[lhs]
		if !ok {
			return nil, nil, nil, fmt.Errorf("unknown assignment target %q", lhs)
		}
		e, err := p.parseExpr(rhs)
		if err != nil {
			return nil, nil, nil, err
		}
		ups = append(ups, Set(v, e))
	}
	var upd Update
	if len(ups) == 1 {
		upd = ups[0]
	} else if len(ups) > 1 {
		upd = Do(ups...)
	}
	return resets, frees, upd, nil
}

// parseExpr parses integer expressions over +, -, * with standard
// precedence; operands are integer literals and variable names.
func (p *parser) parseExpr(s string) (Expr, error) {
	toks, err := tokenize(s)
	if err != nil {
		return nil, err
	}
	e, rest, err := p.parseSum(toks)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("trailing tokens in expression %q", s)
	}
	return e, nil
}

func (p *parser) parseSum(toks []string) (Expr, []string, error) {
	e, toks, err := p.parseTerm(toks)
	if err != nil {
		return nil, nil, err
	}
	for len(toks) > 0 && (toks[0] == "+" || toks[0] == "-") {
		op := toks[0]
		var rhs Expr
		rhs, toks, err = p.parseTerm(toks[1:])
		if err != nil {
			return nil, nil, err
		}
		if op == "+" {
			e = Plus(e, rhs)
		} else {
			e = Minus(e, rhs)
		}
	}
	return e, toks, nil
}

func (p *parser) parseTerm(toks []string) (Expr, []string, error) {
	e, toks, err := p.parseFactor(toks)
	if err != nil {
		return nil, nil, err
	}
	for len(toks) > 0 && toks[0] == "*" {
		var rhs Expr
		rhs, toks, err = p.parseFactor(toks[1:])
		if err != nil {
			return nil, nil, err
		}
		e = Times(e, rhs)
	}
	return e, toks, nil
}

func (p *parser) parseFactor(toks []string) (Expr, []string, error) {
	if len(toks) == 0 {
		return nil, nil, fmt.Errorf("unexpected end of expression")
	}
	t := toks[0]
	if t == "(" {
		e, rest, err := p.parseSum(toks[1:])
		if err != nil {
			return nil, nil, err
		}
		if len(rest) == 0 || rest[0] != ")" {
			return nil, nil, fmt.Errorf("missing closing parenthesis")
		}
		return e, rest[1:], nil
	}
	if t == "-" {
		e, rest, err := p.parseFactor(toks[1:])
		if err != nil {
			return nil, nil, err
		}
		return Minus(C(0), e), rest, nil
	}
	if v, err := strconv.ParseInt(t, 10, 64); err == nil {
		return C(v), toks[1:], nil
	}
	if v, ok := p.vars[t]; ok {
		return V(v), toks[1:], nil
	}
	return nil, nil, fmt.Errorf("unknown operand %q", t)
}

// tokenize splits an expression into numbers, identifiers, and operators.
func tokenize(s string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case strings.ContainsRune("+-*()", rune(c)):
			toks = append(toks, string(c))
			i++
		case c >= '0' && c <= '9':
			j := i
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		case isIdentStart(c):
			j := i
			for j < len(s) && isIdentPart(s[j]) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q in expression", c)
		}
	}
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '.'
}

// splitCmp splits a comparison atom into lhs, operator, rhs.
func splitCmp(atom string) (lhs, op, rhs string, err error) {
	for _, candidate := range []string{"<=", ">=", "==", "!=", "<", ">"} {
		if i := strings.Index(atom, candidate); i >= 0 {
			return strings.TrimSpace(atom[:i]), candidate,
				strings.TrimSpace(atom[i+len(candidate):]), nil
		}
	}
	return "", "", "", fmt.Errorf("no comparison operator in %q", atom)
}

func cmpOp(op string) (CmpOp, error) {
	switch op {
	case "==":
		return Eq, nil
	case "!=":
		return Ne, nil
	case "<":
		return Lt, nil
	case "<=":
		return Le, nil
	case ">":
		return Gt, nil
	case ">=":
		return Ge, nil
	}
	return 0, fmt.Errorf("unknown comparison %q", op)
}
