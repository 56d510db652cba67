// Package query implements InstantDB's SQL dialect: a practical SQL
// subset extended with the paper's degradation constructs — CREATE
// DOMAIN (generalization trees, numeric ranges, time truncation), CREATE
// POLICY (life cycle policies with time/event/predicate triggers),
// DEGRADABLE columns in CREATE TABLE, DECLARE PURPOSE / SET PURPOSE
// (accuracy declarations), and FIRE EVENT. The package provides the
// lexer, AST, recursive-descent parser and the row-expression evaluator;
// planning and execution live in internal/engine, where storage, indexes
// and locks are wired together.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexer tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol // ( ) , . ; * = != < <= > >= ?
)

type token struct {
	kind tokKind
	text string // keywords uppercased; idents lowercased; strings unquoted
	// pos and end delimit the token's source bytes.
	pos, end int
}

// keywords of the dialect (including the paper's extensions).
var keywords = map[string]bool{}

func init() {
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "LIMIT", "ASC", "DESC",
		"INSERT", "INTO", "VALUES", "DELETE", "UPDATE", "SET", "AND", "OR", "NOT",
		"LIKE", "IN", "BETWEEN", "IS", "NULL", "TRUE", "FALSE", "AS",
		"COUNT", "SUM", "AVG", "MIN", "MAX",
		"CREATE", "DROP", "TABLE", "INDEX", "ON", "USING", "PRIMARY", "KEY",
		"DOMAIN", "TREE", "LEVELS", "PATH", "RANGES", "TIME", "SUPPRESS",
		"POLICY", "HOLD", "FOR", "THEN", "REMAIN", "UNTIL", "EVENT", "IF",
		"DEGRADABLE", "LAYOUT", "MOVE", "INPLACE",
		"DECLARE", "PURPOSE", "ACCURACY", "LEVEL",
		"BEGIN", "COMMIT", "ROLLBACK", "READ", "ONLY", "FIRE", "TIMESTAMP",
		"BTREE", "BITMAP", "GT", "ALLOW", "UNLISTED",
	} {
		keywords[k] = true
	}
}

// lexer tokenizes one statement string.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src fully.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '\'':
			s, err := l.lexString()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, pos: start})
		case unicode.IsDigit(rune(c)) || (c == '-' && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) && l.numericContext()):
			l.lexNumber(start)
		case isIdentStart(c):
			l.lexWord(start)
		default:
			if err := l.lexSymbol(start); err != nil {
				return nil, err
			}
		}
		l.toks[len(l.toks)-1].end = l.pos
	}
}

// Split cuts src at each ';' that ends a statement as the lexer reads
// it: a ';' inside a string literal or a -- comment does not split.
// Each statement runs from its first token to its last, as ParseScript
// gives its texts, and empty ones are dropped. rest is the text after
// the last ';' taken the same way ("" when none is there), or, when src
// ends inside a string literal, from its first token to the end of src.
// A reader of lines that appends the next line to rest after a newline
// reads each statement whole.
func Split(src string) (stmts []string, rest string) {
	l := &lexer{src: src}
	start, end := -1, 0
	for l.skipSpace(); l.pos < len(src); l.skipSpace() {
		c := src[l.pos]
		if c == ';' {
			if start >= 0 {
				stmts = append(stmts, src[start:end])
				start = -1
			}
			l.pos++
			continue
		}
		if start < 0 {
			start = l.pos
		}
		if c != '\'' {
			l.pos++
		} else if _, err := l.lexString(); err != nil {
			return stmts, src[start:] // src ends inside the literal
		}
		end = l.pos
	}
	if start >= 0 {
		rest = src[start:end]
	}
	return stmts, rest
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

// numericContext reports whether a '-' starts a negative literal (after
// an operator/separator) rather than binary minus. The dialect has no
// arithmetic, so '-' only appears in negative literals.
func (l *lexer) numericContext() bool { return true }

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *lexer) lexString() (string, error) {
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'') // '' escape
				l.pos += 2
				continue
			}
			l.pos++
			return sb.String(), nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("query: unterminated string literal")
}

func (l *lexer) lexNumber(start int) {
	if l.src[l.pos] == '-' {
		l.pos++
	}
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if unicode.IsDigit(rune(c)) {
			l.pos++
			continue
		}
		if c == '.' && !isFloat && l.pos+1 < len(l.src) && unicode.IsDigit(rune(l.src[l.pos+1])) {
			isFloat = true
			l.pos++
			continue
		}
		break
	}
	kind := tokInt
	if isFloat {
		kind = tokFloat
	}
	l.toks = append(l.toks, token{kind: kind, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexWord(start int) {
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	word := l.src[start:l.pos]
	up := strings.ToUpper(word)
	if keywords[up] {
		l.toks = append(l.toks, token{kind: tokKeyword, text: up, pos: start})
		return
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToLower(word), pos: start})
}

func (l *lexer) lexSymbol(start int) error {
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "!=", "<>", "<=", ">=":
		sym := two
		if sym == "<>" {
			sym = "!="
		}
		l.toks = append(l.toks, token{kind: tokSymbol, text: sym, pos: start})
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '.', ';', '*', '=', '<', '>', '?':
		l.toks = append(l.toks, token{kind: tokSymbol, text: string(c), pos: start})
		l.pos++
		return nil
	}
	return fmt.Errorf("query: unexpected character %q at position %d", c, l.pos)
}
