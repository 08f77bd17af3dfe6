// Package policy implements the Wiera/Tiera policy notation (paper Figs
// 1-6): a concise declarative language of storage tiers, regions, and
// event/response pairs, together with the engine that evaluates events and
// drives responses against a storage executor.
//
// The package splits into:
//
//   - a lexer/parser producing an AST (token.go, ast.go, parser.go)
//   - a printer that round-trips the AST back to source (print.go)
//   - an expression evaluator over an attribute environment (eval.go)
//   - the event/response engine (engine.go) which classifies compiled
//     events (insert, get, timer, filled, cold, threshold) and executes
//     response statements through an Executor supplied by the Tiera or
//     Wiera layer.
//
// # Compiled bodies
//
// Every put and get fires events, so Compile decides once everything that is
// a function of the policy text: each event's kind and parameters, whether
// its guard can be false at all, the per-kind index ByKind returns, and its
// response body lowered into steps whose action arguments are already
// classified as literal, identifier lookup, expression or object predicate.
// Firing walks those steps and evaluates only what depends on the
// environment; conditions and values are still Eval over the parsed
// expression, which allocates nothing. There is one executor of bodies: the
// timer, fill, object-monitor and threshold schedulers fire the same steps
// with a MapEnv that the put and get paths fire with an OpEnv.
//
// The contract with an Executor: the *ActionCall passed to Do is valid until
// Do returns. With an OpEnv the engine evaluates every action of the firing
// into the one call the OpEnv carries (that, and OpEnv being a field of the
// per-operation executor, is why a firing allocates nothing), so an executor
// copies out any argument it needs later; a Predicate obtained from the call
// remains usable for as long as the firing's environment is. With any other
// environment each action gets a call of its own.
package policy

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber   // 42, 3.5
	TokString   // "text"
	TokDuration // 30s, 800ms, 120h, 7.5m
	TokSize     // 5G, 512M, 40KB
	TokRate     // 40KB/s
	TokPercent  // 50%
	TokLBrace   // {
	TokRBrace   // }
	TokLParen   // (
	TokRParen   // )
	TokColon    // :
	TokSemi     // ;
	TokComma    // ,
	TokAssign   // =
	TokEq       // ==
	TokNeq      // !=
	TokLt       // <
	TokGt       // >
	TokLe       // <=
	TokGe       // >=
	TokAnd      // &&
	TokOr       // ||
	TokNot      // !
)

var tokenNames = map[TokenKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokNumber: "number",
	TokString: "string", TokDuration: "duration", TokSize: "size",
	TokRate: "rate", TokPercent: "percent",
	TokLBrace: "{", TokRBrace: "}", TokLParen: "(", TokRParen: ")",
	TokColon: ":", TokSemi: ";", TokComma: ",", TokAssign: "=",
	TokEq: "==", TokNeq: "!=", TokLt: "<", TokGt: ">", TokLe: "<=",
	TokGe: ">=", TokAnd: "&&", TokOr: "||", TokNot: "!",
}

// String returns the token kind's display name.
func (k TokenKind) String() string {
	if s, ok := tokenNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

// lexer scans policy source into tokens.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
	toks []Token
	fail error
}

// Lex tokenizes src. Comments run from '%' or '//' to end of line (the
// paper's figures use '%').
func Lex(src string) ([]Token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	l.run()
	if l.fail != nil {
		return nil, l.fail
	}
	return l.toks, nil
}

func (l *lexer) errorf(format string, args ...any) {
	if l.fail == nil {
		l.fail = fmt.Errorf("policy: line %d:%d: %s", l.line, l.col, fmt.Sprintf(format, args...))
	}
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) emit(kind TokenKind, text string, line, col int) {
	l.toks = append(l.toks, Token{Kind: kind, Text: text, Line: line, Col: col})
}

func (l *lexer) run() {
	for l.fail == nil && l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '%':
			l.skipLine()
		case c == '/' && l.peekAt(1) == '/':
			l.skipLine()
		case unicode.IsLetter(rune(c)) || c == '_':
			l.lexIdent()
		case unicode.IsDigit(rune(c)):
			l.lexNumber()
		case c == '"':
			l.lexString()
		default:
			l.lexOperator()
		}
	}
	l.emit(TokEOF, "", l.line, l.col)
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.peek() != '\n' {
		l.advance()
	}
}

// lexIdent scans an identifier; dotted paths (insert.object.dirty) and
// hyphenated names (us-west, change_policy) are single tokens.
func (l *lexer) lexIdent() {
	line, col := l.line, l.col
	start := l.pos
	for l.pos < len(l.src) {
		c := l.peek()
		if unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_' || c == '.' {
			l.advance()
			continue
		}
		// Hyphen continues an identifier only when followed by a letter or
		// digit (region names like us-west), so "a-1" lexes as one ident but
		// "a - 1" never arises (no arithmetic in this language).
		if c == '-' && (unicode.IsLetter(rune(l.peekAt(1))) || unicode.IsDigit(rune(l.peekAt(1)))) {
			l.advance()
			continue
		}
		break
	}
	l.emit(TokIdent, l.src[start:l.pos], line, col)
}

// lexNumber scans a number and any unit suffix: durations (ms, s, m, h),
// sizes (B, KB/K, MB/M, GB/G, TB/T), rates (KB/s etc.), percents.
func (l *lexer) lexNumber() {
	line, col := l.line, l.col
	start := l.pos
	for l.pos < len(l.src) && (unicode.IsDigit(rune(l.peek())) || l.peek() == '.') {
		l.advance()
	}
	numEnd := l.pos
	// Scan a potential unit suffix of letters.
	for l.pos < len(l.src) && unicode.IsLetter(rune(l.peek())) {
		l.advance()
	}
	unit := l.src[numEnd:l.pos]
	num := l.src[start:numEnd]
	switch strings.ToLower(unit) {
	case "":
		if l.peek() == '%' {
			l.advance()
			l.emit(TokPercent, num, line, col)
			return
		}
		l.emit(TokNumber, num, line, col)
	case "ms", "s", "sec", "second", "seconds", "min", "minute", "minutes",
		"h", "hour", "hours", "us", "ns":
		l.emit(TokDuration, num+strings.ToLower(unit), line, col)
	case "m":
		// Case-sensitive disambiguation: lowercase "m" is minutes,
		// uppercase "M" is megabytes.
		if unit == "M" {
			if l.peek() == '/' && (l.peekAt(1) == 's' || l.peekAt(1) == 'S') {
				l.advance()
				l.advance()
				l.emit(TokRate, num+"M", line, col)
				return
			}
			l.emit(TokSize, num+"M", line, col)
			return
		}
		l.emit(TokDuration, num+"m", line, col)
	case "b", "kb", "k", "mb", "gb", "g", "tb", "t":
		if l.peek() == '/' && (l.peekAt(1) == 's' || l.peekAt(1) == 'S') {
			l.advance()
			l.advance()
			l.emit(TokRate, num+strings.ToUpper(unit), line, col)
			return
		}
		l.emit(TokSize, num+strings.ToUpper(unit), line, col)
	default:
		l.errorf("unknown unit %q on number %q", unit, num)
	}
}

func (l *lexer) lexString() {
	line, col := l.line, l.col
	l.advance() // opening quote
	start := l.pos
	for l.pos < len(l.src) && l.peek() != '"' {
		if l.peek() == '\n' {
			l.errorf("unterminated string")
			return
		}
		l.advance()
	}
	if l.pos >= len(l.src) {
		l.errorf("unterminated string")
		return
	}
	text := l.src[start:l.pos]
	l.advance() // closing quote
	l.emit(TokString, text, line, col)
}

func (l *lexer) lexOperator() {
	line, col := l.line, l.col
	c := l.advance()
	two := func(next byte, kind TokenKind, text string) bool {
		if l.peek() == next {
			l.advance()
			l.emit(kind, text, line, col)
			return true
		}
		return false
	}
	switch c {
	case '{':
		l.emit(TokLBrace, "{", line, col)
	case '}':
		l.emit(TokRBrace, "}", line, col)
	case '(':
		l.emit(TokLParen, "(", line, col)
	case ')':
		l.emit(TokRParen, ")", line, col)
	case ':':
		l.emit(TokColon, ":", line, col)
	case ';':
		l.emit(TokSemi, ";", line, col)
	case ',':
		l.emit(TokComma, ",", line, col)
	case '=':
		if !two('=', TokEq, "==") {
			l.emit(TokAssign, "=", line, col)
		}
	case '!':
		if !two('=', TokNeq, "!=") {
			l.emit(TokNot, "!", line, col)
		}
	case '<':
		if !two('=', TokLe, "<=") {
			l.emit(TokLt, "<", line, col)
		}
	case '>':
		if !two('=', TokGe, ">=") {
			l.emit(TokGt, ">", line, col)
		}
	case '&':
		if !two('&', TokAnd, "&&") {
			l.errorf("expected && after &")
		}
	case '|':
		if !two('|', TokOr, "||") {
			l.errorf("expected || after |")
		}
	default:
		l.errorf("unexpected character %q", c)
	}
}
