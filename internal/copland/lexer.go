package copland

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates lexical token kinds of the ASCII Copland syntax.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokStar      // *
	tokColon     // :
	tokComma     // ,
	tokAt        // @
	tokLBrack    // [
	tokRBrack    // ]
	tokLParen    // (
	tokRParen    // )
	tokArrow     // ->
	tokPlus      // +
	tokMinus     // -
	tokLess      // <
	tokTilde     // ~
	tokGT        // >
	tokBang      // !
	tokHash      // #
	tokUnder     // _
	tokGuard     // |>
	tokStarArrow // *=>
)

var tokNames = map[tokKind]string{
	tokEOF: "end of input", tokIdent: "identifier", tokStar: "'*'",
	tokColon: "':'", tokComma: "','", tokAt: "'@'", tokLBrack: "'['",
	tokRBrack: "']'", tokLParen: "'('", tokRParen: "')'", tokArrow: "'->'",
	tokPlus: "'+'", tokMinus: "'-'", tokLess: "'<'", tokTilde: "'~'",
	tokGT: "'>'", tokBang: "'!'", tokHash: "'#'", tokUnder: "'_'",
	tokGuard: "'|>'", tokStarArrow: "'*=>'",
}

func (k tokKind) String() string {
	if n, ok := tokNames[k]; ok {
		return n
	}
	return fmt.Sprintf("token(%d)", uint8(k))
}

type token struct {
	kind tokKind
	text string
	pos  int // byte offset in input, for error messages
}

// SyntaxError reports a lexical or parse failure with its input position.
type SyntaxError struct {
	Input string
	Pos   int
	Msg   string
}

func (e *SyntaxError) Error() string {
	line, col := 1, 1
	for i, r := range e.Input {
		if i >= e.Pos {
			break
		}
		if r == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("copland: %d:%d: %s", line, col, e.Msg)
}

// lex tokenizes input. Identifiers are Unicode letters/digits plus '.' and
// '_' interior characters (program names like firewall_v5.p4 are single
// identifiers); a standalone '_' is the copy operator. Comments run from
// "//" to end of line.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		r, w := utf8.DecodeRuneInString(input[i:])
		switch {
		case unicode.IsSpace(r):
			i += w
		case r == '/' && strings.HasPrefix(input[i:], "//"):
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case strings.HasPrefix(input[i:], "->"):
			toks = append(toks, token{tokArrow, "->", i})
			i += 2
		case strings.HasPrefix(input[i:], "|>"):
			toks = append(toks, token{tokGuard, "|>", i})
			i += 2
		case strings.HasPrefix(input[i:], "*=>"):
			toks = append(toks, token{tokStarArrow, "*=>", i})
			i += 3
		case isIdentStart(r):
			j := i + w
			for j < len(input) {
				r2, w2 := utf8.DecodeRuneInString(input[j:])
				if !isIdentCont(r2) {
					break
				}
				j += w2
			}
			toks = append(toks, token{tokIdent, input[i:j], i})
			i = j
		default:
			var k tokKind
			switch r {
			case '*':
				k = tokStar
			case ':':
				k = tokColon
			case ',':
				k = tokComma
			case '@':
				k = tokAt
			case '[':
				k = tokLBrack
			case ']':
				k = tokRBrack
			case '(':
				k = tokLParen
			case ')':
				k = tokRParen
			case '+':
				k = tokPlus
			case '-':
				k = tokMinus
			case '<':
				k = tokLess
			case '~':
				k = tokTilde
			case '>':
				k = tokGT
			case '!':
				k = tokBang
			case '#':
				k = tokHash
			case '_':
				k = tokUnder
			default:
				return nil, &SyntaxError{input, i, fmt.Sprintf("unexpected character %q", r)}
			}
			toks = append(toks, token{k, string(r), i})
			i += w
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}

func isIdentStart(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

func isIdentCont(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '.' || r == '_'
}
