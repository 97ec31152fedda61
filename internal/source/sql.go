package source

import (
	"fmt"
	"strconv"
	"strings"

	"disco/internal/algebra"
	"disco/internal/oql"
	"disco/internal/types"
)

// ParseSQL parses the RelStore SQL dialect into a logical plan over the
// store's tables:
//
//	SELECT [DISTINCT] * | col, col ...
//	FROM table | (subquery) [JOIN table|(subquery) ON cond]...
//	[WHERE cond]
//
// cond supports =, <>, !=, <, <=, >, >=, IN (lit, ...), AND, OR, NOT,
// parentheses, numeric literals, 'string' literals, TRUE and FALSE.
func ParseSQL(src string) (algebra.Node, error) {
	toks, err := sqlLex(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	n, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.accept(";")
	if p.cur().kind != sqlEOF {
		return nil, p.errorf("unexpected %q after query", p.cur().text)
	}
	return n, nil
}

// ParseSQLCondition parses a standalone condition in the SQL dialect (the
// WHERE-clause grammar) into an expression over attribute names.
func ParseSQLCondition(src string) (oql.Expr, error) {
	toks, err := sqlLex(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != sqlEOF {
		return nil, p.errorf("unexpected %q after condition", p.cur().text)
	}
	return cond, nil
}

type sqlKind uint8

const (
	sqlEOF sqlKind = iota + 1
	sqlIdent
	sqlNumber
	sqlString
	sqlPunct
)

type sqlTok struct {
	kind sqlKind
	text string
	off  int
}

func sqlLex(src string) ([]sqlTok, error) {
	var toks []sqlTok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isSQLLetter(c):
			start := i
			for i < len(src) && (isSQLLetter(src[i]) || src[i] >= '0' && src[i] <= '9') {
				i++
			}
			toks = append(toks, sqlTok{kind: sqlIdent, text: src[start:i], off: start})
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			// A '-' directly before a digit signs the literal ("--" is a
			// comment, matched above).
			start := i
			i++
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				i++
			}
			toks = append(toks, sqlTok{kind: sqlNumber, text: src[start:i], off: start})
		case c == '\'':
			start := i
			i++
			var b strings.Builder
			for {
				if i >= len(src) {
					return nil, fmt.Errorf("sql: offset %d: unterminated string", start)
				}
				if src[i] == '\'' {
					// '' escapes a quote, SQL style.
					if i+1 < len(src) && src[i+1] == '\'' {
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				b.WriteByte(src[i])
				i++
			}
			toks = append(toks, sqlTok{kind: sqlString, text: b.String(), off: start})
		default:
			for _, two := range []string{"<>", "!=", "<=", ">="} {
				if strings.HasPrefix(src[i:], two) {
					toks = append(toks, sqlTok{kind: sqlPunct, text: two, off: i})
					i += 2
					goto next
				}
			}
			if strings.IndexByte("(),*=<>;", c) >= 0 {
				toks = append(toks, sqlTok{kind: sqlPunct, text: string(c), off: i})
				i++
				goto next
			}
			return nil, fmt.Errorf("sql: offset %d: unexpected character %q", i, c)
		next:
		}
	}
	toks = append(toks, sqlTok{kind: sqlEOF, off: len(src)})
	return toks, nil
}

func isSQLLetter(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

type sqlParser struct {
	toks []sqlTok
	i    int
}

func (p *sqlParser) cur() sqlTok { return p.toks[p.i] }

func (p *sqlParser) advance() sqlTok {
	t := p.toks[p.i]
	if t.kind != sqlEOF {
		p.i++
	}
	return t
}

func (p *sqlParser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sql: offset %d: %s", p.cur().off, fmt.Sprintf(format, args...))
}

func (p *sqlParser) isKeyword(kw string) bool {
	t := p.cur()
	return t.kind == sqlIdent && strings.EqualFold(t.text, kw)
}

func (p *sqlParser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *sqlParser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", strings.ToUpper(kw), p.cur().text)
	}
	return nil
}

func (p *sqlParser) accept(text string) bool {
	t := p.cur()
	if t.kind == sqlPunct && t.text == text {
		p.advance()
		return true
	}
	return false
}

func (p *sqlParser) expect(text string) error {
	if !p.accept(text) {
		return p.errorf("expected %q, found %q", text, p.cur().text)
	}
	return nil
}

func (p *sqlParser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != sqlIdent {
		return "", p.errorf("expected identifier, found %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *sqlParser) parseSelect() (algebra.Node, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	distinct := p.acceptKeyword("distinct")

	star := false
	var cols []string
	if p.accept("*") {
		star = true
	} else {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if !p.accept(",") {
				break
			}
		}
	}

	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	plan, err := p.parseFromItem()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("join") {
		right, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("on"); err != nil {
			return nil, err
		}
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		plan = &algebra.Join{L: plan, R: right, Pred: cond}
	}
	if p.acceptKeyword("where") {
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		plan = &algebra.Select{Pred: cond, Input: plan}
	}
	if !star {
		pcols := make([]algebra.Col, len(cols))
		for i, c := range cols {
			pcols[i] = algebra.Col{Name: c, Expr: &oql.Ident{Name: c}}
		}
		plan = &algebra.Project{Cols: pcols, Input: plan}
	}
	if distinct {
		plan = &algebra.Distinct{Input: plan}
	}
	return plan, nil
}

func (p *sqlParser) parseFromItem() (algebra.Node, error) {
	if p.accept("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return sub, nil
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &algebra.Get{Ref: algebra.ExtentRef{Extent: table, Source: table}}, nil
}

// parseCond parses OR-expressions (lowest precedence).
func (p *sqlParser) parseCond() (oql.Expr, error) {
	left, err := p.parseCondAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		right, err := p.parseCondAnd()
		if err != nil {
			return nil, err
		}
		left = &oql.Binary{Op: oql.OpOr, L: left, R: right}
	}
	return left, nil
}

func (p *sqlParser) parseCondAnd() (oql.Expr, error) {
	left, err := p.parseCondNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		right, err := p.parseCondNot()
		if err != nil {
			return nil, err
		}
		left = &oql.Binary{Op: oql.OpAnd, L: left, R: right}
	}
	return left, nil
}

func (p *sqlParser) parseCondNot() (oql.Expr, error) {
	if p.acceptKeyword("not") {
		x, err := p.parseCondNot()
		if err != nil {
			return nil, err
		}
		return &oql.Unary{Op: oql.OpNot, X: x}, nil
	}
	return p.parseComparison()
}

var sqlCmpOps = map[string]oql.BinaryOp{
	"=": oql.OpEq, "<>": oql.OpNe, "!=": oql.OpNe,
	"<": oql.OpLt, "<=": oql.OpLe, ">": oql.OpGt, ">=": oql.OpGe,
}

func (p *sqlParser) parseComparison() (oql.Expr, error) {
	if p.accept("(") {
		inner, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	// IN (lit, lit, ...)
	if p.acceptKeyword("in") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var elems []types.Value
		for {
			lit, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			l, ok := lit.(*oql.Literal)
			if !ok {
				return nil, p.errorf("IN list accepts literals only")
			}
			elems = append(elems, l.Val)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &oql.Binary{Op: oql.OpIn, L: left, R: &oql.Literal{Val: types.NewBag(elems...)}}, nil
	}
	t := p.cur()
	if t.kind != sqlPunct {
		return nil, p.errorf("expected comparison operator, found %q", t.text)
	}
	op, ok := sqlCmpOps[t.text]
	if !ok {
		return nil, p.errorf("unknown operator %q", t.text)
	}
	p.advance()
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &oql.Binary{Op: op, L: left, R: right}, nil
}

func (p *sqlParser) parseOperand() (oql.Expr, error) {
	t := p.cur()
	switch t.kind {
	case sqlIdent:
		switch {
		case strings.EqualFold(t.text, "true"):
			p.advance()
			return &oql.Literal{Val: types.Bool(true)}, nil
		case strings.EqualFold(t.text, "false"):
			p.advance()
			return &oql.Literal{Val: types.Bool(false)}, nil
		default:
			p.advance()
			return &oql.Ident{Name: t.text}, nil
		}
	case sqlNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &oql.Literal{Val: types.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &oql.Literal{Val: types.Int(n)}, nil
	case sqlString:
		p.advance()
		return &oql.Literal{Val: types.Str(t.text)}, nil
	default:
		return nil, p.errorf("expected operand, found %q", t.text)
	}
}
