package sparql

import (
	"fmt"
	"slices"
	"strings"

	"cliquesquare/internal/rdf"
)

// RDFType is the IRI abbreviated by the SPARQL keyword "a".
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// Parse parses a BGP SPARQL query of the form
//
//	PREFIX pre: <iri> ...
//	SELECT ?v1 ... ?vm WHERE { t1 . t2 . ... tn }
//
// Each triple pattern position may be a ?variable, an <iri>, a
// prefixed:name (expanded via PREFIX declarations), the keyword a
// (rdf:type), or a "literal". Keywords are case-insensitive.
//
// The text is read once, a token at a time. A valid query allocates its
// Query and its two slices, at their lengths, and one string per
// expanded prefixed name or literal with an escape: all other text is
// substrings of src.
func Parse(src string) (*Query, error) {
	p := parser{src: src}
	p.scan()
	var prefixBuf [4]prefix
	prefixes := prefixBuf[:0]
	for p.tok.is(tokWord, "PREFIX") {
		p.next()
		name := p.next()
		if name.kind != tokWord || !strings.HasSuffix(name.text, ":") {
			return nil, p.errf("PREFIX expects a name ending in ':'")
		}
		iri := p.next()
		if iri.kind != tokIRI {
			return nil, p.errf("PREFIX %s expects an <iri>", name.text)
		}
		prefixes = append(prefixes, prefix{name.text[:len(name.text)-1], iri.text})
	}
	if p.tok.kind == tokEOF {
		return nil, p.errf("empty query")
	}
	if t := p.next(); !t.is(tokWord, "SELECT") {
		return nil, p.errf("expected SELECT, found %q", t.text)
	}
	var selectBuf [8]string
	sel := selectBuf[:0]
	for p.tok.kind == tokVar {
		sel = append(sel, p.next().text)
	}
	switch {
	case p.tok.kind == tokEOF:
		return nil, p.errf("unexpected end of query in SELECT clause")
	case p.tok.is(tokPunct, "*"):
		return nil, p.errf("SELECT * is not supported; list variables explicitly")
	case len(sel) == 0:
		return nil, p.errf("SELECT lists no variables")
	}
	t := p.next()
	if t.is(tokWord, "WHERE") {
		t = p.next()
	}
	if !t.is(tokPunct, "{") {
		return nil, p.errf("expected '{', found %q", t.text)
	}
	var patternBuf [stackPatterns]TriplePattern
	pats := patternBuf[:0]
	for !p.tok.is(tokPunct, "}") {
		if p.tok.kind == tokEOF {
			return nil, p.errf("unterminated WHERE clause")
		}
		var tp [3]PatternTerm
		for k := range tp {
			if p.tok.kind == tokEOF {
				return nil, p.errf("triple pattern truncated")
			}
			var err error
			if tp[k], err = p.term(p.next(), k == 1, prefixes); err != nil {
				return nil, err
			}
		}
		if pats = append(pats, TriplePattern{tp[0], tp[1], tp[2]}); p.tok.is(tokPunct, ".") {
			p.next()
		}
	}
	if p.next(); p.tok.kind != tokEOF {
		return nil, p.errf("trailing input after '}': %q", p.tok.text)
	}
	q := &Query{Select: slices.Clone(sel), Patterns: slices.Clone(pats)}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error; intended for tests, examples
// and static workload definitions.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type tokenKind uint8

// tokErr is an unreadable byte, or an unterminated IRI or literal: the
// rest of the input.
const tokEOF, tokWord, tokVar, tokIRI, tokLit, tokPunct, tokErr tokenKind = 0, 1, 2, 3, 4, 5, 6

type token struct {
	kind tokenKind
	text string
}

type parser struct {
	src string
	off int   // where the token after tok starts
	tok token // the next token
	n   int   // tokens consumed
}

// scan reads the token at p.off into p.tok.
func (p *parser) scan() {
	src, i := p.src, p.off
	for ; i < len(src) && strings.IndexByte(" \t\n\r#", src[i]) >= 0; i++ {
		if src[i] == '#' { // comment to end of line
			for i+1 < len(src) && src[i+1] != '\n' {
				i++
			}
		}
	}
	// The token is src[lo:hi] and the next starts at end. By default it
	// is an error that runs to the end of the input.
	kind, lo, hi, end, esc := tokErr, i, len(src), len(src), false
	switch {
	case i == len(src):
		kind = tokEOF
	case strings.IndexByte("{}.;*", src[i]) >= 0:
		kind, hi, end = tokPunct, i+1, i+1
	case src[i] == '?' || src[i] == '$':
		for hi = i + 1; hi < len(src) && isNameByte(src[hi]); hi++ {
		}
		kind, lo, end = tokVar, i+1, hi
	case src[i] == '<':
		if k := strings.IndexByte(src[i:], '>'); k >= 0 {
			kind, lo, hi, end = tokIRI, i+1, i+k, i+k+1
		}
	case src[i] == '"':
		k := i + 1
		for ; k < len(src) && src[k] != '"'; k++ {
			if src[k] == '\\' && k+1 < len(src) {
				esc, k = true, k+1
			}
		}
		if k < len(src) {
			kind, lo, hi, end = tokLit, i+1, k, k+1
		}
	default:
		for hi = i; hi < len(src) && isWordByte(src[hi]); hi++ {
		}
		if kind, end = tokWord, hi; hi == i { // an unknown byte
			kind, hi, end = tokErr, i+1, len(src)
		}
	}
	p.tok, p.off = token{kind, src[lo:hi]}, end
	if kind == tokLit && esc {
		p.tok.text = unescape(p.tok.text)
	}
}

// unescape returns a literal's body with each backslash taking the byte
// after it as it is.
func unescape(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func isWordByte(c byte) bool {
	return isNameByte(c) || c == ':' || c == '-' || c == '/' || c == '\''
}

// next consumes and returns the next token.
func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.n++
		p.scan()
	}
	return t
}

// is reports whether t is the punctuation or (case-insensitive) keyword s.
func (t token) is(kind tokenKind, s string) bool {
	return t.kind == kind && strings.EqualFold(t.text, s)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: %s (at token %d)", fmt.Sprintf(format, args...), p.n)
}

type prefix struct{ name, iri string }

func (p *parser) term(t token, predicatePos bool, prefixes []prefix) (PatternTerm, error) {
	switch t.kind {
	case tokVar:
		return Variable(t.text), nil
	case tokIRI:
		return Constant(rdf.NewIRI(t.text)), nil
	case tokLit:
		return Constant(rdf.NewLiteral(t.text)), nil
	case tokWord:
		if predicatePos && t.text == "a" {
			return Constant(rdf.NewIRI(RDFType)), nil
		}
		if k := strings.IndexByte(t.text, ':'); k >= 0 {
			pre, local := t.text[:k], t.text[k+1:]
			for i := len(prefixes) - 1; i >= 0; i-- { // a later declaration wins
				if prefixes[i].name == pre {
					return Constant(rdf.NewIRI(prefixes[i].iri + local)), nil
				}
			}
			return PatternTerm{}, p.errf("undeclared prefix %q in %q", pre, t.text)
		}
		return PatternTerm{}, p.errf("unexpected word %q in triple pattern", t.text)
	default:
		return PatternTerm{}, p.errf("bad token %q in triple pattern", t.text)
	}
}
