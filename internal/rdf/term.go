// Package rdf provides the RDF data model used throughout CliqueSquare:
// terms (IRIs, literals, blank nodes), triples, dictionary encoding of
// terms to dense integer IDs, an in-memory graph, and an N-Triples-style
// parser and serializer.
//
// The runtime representation is deliberately flat: a term is a TermID
// (uint32) assigned by a Dict, and a triple is three TermIDs. All query
// processing operates on IDs; strings only appear at the input/output
// boundary.
package rdf

import "fmt"

// TermKind distinguishes the three kinds of RDF terms.
type TermKind uint8

const (
	// IRI is a Unique Resource Identifier, written <...> in N-Triples.
	IRI TermKind = iota
	// Literal is a constant value, written "..." in N-Triples.
	Literal
	// Blank is a blank node, written _:label in N-Triples.
	Blank
)

// String returns the kind name.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	}
	return fmt.Sprintf("TermKind(%d)", uint8(k))
}

// Term is a decoded RDF term: a kind plus its lexical value (without
// surrounding <>, "" or _: markers).
type Term struct {
	Kind  TermKind
	Value string
}

// NewIRI returns an IRI term.
func NewIRI(v string) Term { return Term{Kind: IRI, Value: v} }

// NewLiteral returns a literal term.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewBlank returns a blank-node term.
func NewBlank(v string) Term { return Term{Kind: Blank, Value: v} }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Literal:
		return `"` + t.Value + `"`
	case Blank:
		return "_:" + t.Value
	}
	return t.Value
}

// AppendRendered appends the term's N-Triples form — the bytes String
// returns — to b. The dictionary files every term under this form; the
// three kinds cannot collide because they differ in their first byte.
func (t Term) AppendRendered(b []byte) []byte {
	switch t.Kind {
	case IRI:
		b = append(b, '<')
		b = append(b, t.Value...)
		return append(b, '>')
	case Literal:
		b = append(b, '"')
		b = append(b, t.Value...)
		return append(b, '"')
	case Blank:
		b = append(b, "_:"...)
	}
	return append(b, t.Value...)
}

// parseRendered is the inverse of String for a well-formed rendered
// term: the kind is read off the first byte and Value is the substring
// between the markers, sharing s's bytes.
func parseRendered(s string) Term {
	switch s[0] {
	case '<':
		return Term{Kind: IRI, Value: s[1 : len(s)-1]}
	case '"':
		return Term{Kind: Literal, Value: s[1 : len(s)-1]}
	}
	return Term{Kind: Blank, Value: s[2:]}
}

// KindError reports a Term whose Kind is none of IRI, Literal and
// Blank. Such a term has no N-Triples form of its own — rendered, it
// would alias whatever term its bare Value happens to spell — so every
// door into the dictionary refuses it.
type KindError struct {
	Term Term
}

func (e *KindError) Error() string {
	return fmt.Sprintf("rdf: term %q has kind %v, want iri, literal or blank", e.Term.Value, e.Term.Kind)
}

// Check returns a *KindError unless t.Kind is IRI, Literal or Blank.
func (t Term) Check() error {
	if t.Kind > Blank {
		return &KindError{Term: t}
	}
	return nil
}
