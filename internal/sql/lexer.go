package sql

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // operators and punctuation
)

type token struct {
	kind tokenKind
	text string // identifiers upper-cased except quoted; ops verbatim
	raw  string // original text (for strings: unescaped content)
	pos  int
}

// lexer tokenizes a SQL string.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lexFault names the lex error scan stopped at, if any.
type lexFault uint8

const (
	lexOK lexFault = iota
	lexUnterminatedString
	lexUnterminatedQuote
	lexBadChar
)

// lex tokenizes the whole input up front.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		tok, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, tok)
		if tok.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: lex error at offset %d: %s", l.pos, fmt.Sprintf(format, args...))
}

// next scans the next token and builds its text.
func (l *lexer) next() (token, error) {
	kind, start, fault := l.scan()
	switch fault {
	case lexUnterminatedString:
		return token{}, l.errorf("unterminated string literal")
	case lexUnterminatedQuote:
		return token{}, l.errorf("unterminated quoted identifier")
	case lexBadChar:
		return token{}, l.errorf("unexpected character %q", string(l.src[l.pos]))
	}
	raw := l.src[start:l.pos]
	switch kind {
	case tokEOF:
		return token{kind: tokEOF, pos: start}, nil
	case tokIdent:
		if raw[0] == '"' {
			// Quoted identifier: preserved case.
			raw = raw[1 : len(raw)-1]
			return token{kind: tokIdent, text: raw, raw: raw, pos: start}, nil
		}
		return token{kind: tokIdent, text: strings.ToUpper(raw), raw: raw, pos: start}, nil
	case tokString:
		s := strings.Clone(unquote(raw))
		return token{kind: tokString, text: s, raw: s, pos: start}, nil
	case tokOp:
		if raw == "!=" {
			raw = "<>"
		}
	}
	return token{kind: kind, text: raw, raw: raw, pos: start}, nil
}

// scan skips whitespace and comments, then advances past one token and
// returns its kind and start offset (tokEOF at the end of input). It
// allocates nothing, so the shape scan (shape.go) follows the very
// token rules Parse does. On a fault, l.pos is where the error is
// reported.
func (l *lexer) scan() (tokenKind, int, lexFault) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
scan:
	start := l.pos
	if l.pos >= len(l.src) {
		return tokEOF, start, lexOK
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return tokIdent, start, lexOK

	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.' ||
			l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
			((l.src[l.pos] == '+' || l.src[l.pos] == '-') && (l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E'))) {
			l.pos++
		}
		return tokNumber, start, lexOK

	case c == '\'':
		// A doubled quote is an escaped one; the first lone quote ends
		// the literal.
		l.pos++
		for {
			end := strings.IndexByte(l.src[l.pos:], '\'')
			if end < 0 {
				l.pos = len(l.src)
				return tokEOF, start, lexUnterminatedString
			}
			l.pos += end + 1
			if l.pos < len(l.src) && l.src[l.pos] == '\'' {
				l.pos++
				continue
			}
			return tokString, start, lexOK
		}

	case c == '"':
		l.pos++
		end := strings.IndexByte(l.src[l.pos:], '"')
		if end < 0 {
			return tokEOF, start, lexUnterminatedQuote
		}
		l.pos += end + 1
		return tokIdent, start, lexOK

	default:
		// Multi-character operators first.
		if l.pos+1 < len(l.src) {
			switch l.src[l.pos : l.pos+2] {
			case "<=", ">=", "<>", "!=", "||":
				l.pos += 2
				return tokOp, start, lexOK
			}
		}
		switch c {
		case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', ';', '.':
			l.pos++
			return tokOp, start, lexOK
		}
		return tokEOF, start, lexBadChar
	}
}

// unquote returns the content of a scanned string literal, quotes
// stripped and each doubled quote collapsed to one. Without escapes it
// is a substring of raw.
func unquote(raw string) string {
	s := raw[1 : len(raw)-1]
	if strings.Contains(s, "''") {
		return strings.ReplaceAll(s, "''", "'")
	}
	return s
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
