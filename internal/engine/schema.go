package engine

import (
	"fmt"
	"strings"
)

// RelationSchema describes one relation: its name, attribute names, and the
// prefix used to mint tuple identifiers (e.g. "ag" for AuthGrant so tuples
// are named ag1, ag2, ... as in the paper's running example).
type RelationSchema struct {
	Name     string
	Attrs    []string
	IDPrefix string
}

// Arity returns the number of attributes.
func (rs *RelationSchema) Arity() int { return len(rs.Attrs) }

// String renders "Name(attr1, attr2)".
func (rs *RelationSchema) String() string {
	return rs.Name + "(" + strings.Join(rs.Attrs, ", ") + ")"
}

// Schema is an ordered collection of relation schemas. Order matters only
// for display; lookup is by name.
type Schema struct {
	Relations []*RelationSchema
	byName    map[string]*RelationSchema
}

// NewSchema creates an empty schema.
func NewSchema() *Schema {
	return &Schema{byName: make(map[string]*RelationSchema)}
}

// MustAddRelation adds a relation schema and panics on duplicates or empty
// names; it is intended for static schema construction in tests, generators,
// and examples.
func (s *Schema) MustAddRelation(name, idPrefix string, attrs ...string) *RelationSchema {
	rs, err := s.AddRelation(name, idPrefix, attrs...)
	if err != nil {
		panic(err)
	}
	return rs
}

// AddRelation adds a relation schema. The idPrefix may be empty, in which
// case a prefix is derived from the lowercase leading letters of the name.
func (s *Schema) AddRelation(name, idPrefix string, attrs ...string) (*RelationSchema, error) {
	if name == "" {
		return nil, fmt.Errorf("engine: relation name must be non-empty")
	}
	if _, dup := s.byName[name]; dup {
		return nil, fmt.Errorf("engine: duplicate relation %q", name)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("engine: relation %q needs at least one attribute", name)
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a] {
			return nil, fmt.Errorf("engine: relation %q has duplicate attribute %q", name, a)
		}
		seen[a] = true
	}
	if idPrefix == "" {
		idPrefix = strings.ToLower(name[:1])
	}
	rs := &RelationSchema{Name: name, Attrs: append([]string(nil), attrs...), IDPrefix: idPrefix}
	s.Relations = append(s.Relations, rs)
	s.byName[name] = rs
	return rs, nil
}

// Relation returns the schema of the named relation, or nil.
func (s *Schema) Relation(name string) *RelationSchema {
	return s.byName[name]
}

// Names returns the relation names in declaration order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Relations))
	for i, rs := range s.Relations {
		out[i] = rs.Name
	}
	return out
}

// String renders the schema one relation per line.
func (s *Schema) String() string {
	var b strings.Builder
	for i, rs := range s.Relations {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(rs.String())
	}
	return b.String()
}

// ParseSchema parses a schema declaration, one relation per line:
//
//	# comments allowed
//	Organization(oid, name)
//	Author:au(aid, name, oid)     # optional ":prefix" names tuple IDs au1, au2, ...
//
// Both '#' and '%' start comments. The deltarepair.ParseSchema facade and
// the repair server's session-registration endpoint delegate here.
func ParseSchema(src string) (*Schema, error) {
	s := NewSchema()
	for lineNo, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if i := strings.IndexAny(line, "#%"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		open := strings.IndexByte(line, '(')
		if open < 0 || !strings.HasSuffix(line, ")") {
			return nil, fmt.Errorf("engine: schema line %d: want Name(attr, ...), got %q", lineNo+1, line)
		}
		name, prefix := line[:open], ""
		if c := strings.IndexByte(name, ':'); c >= 0 {
			name, prefix = name[:c], name[c+1:]
		}
		name = strings.TrimSpace(name)
		var attrs []string
		for _, a := range strings.Split(line[open+1:len(line)-1], ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("engine: schema line %d: empty attribute", lineNo+1)
			}
			attrs = append(attrs, a)
		}
		if _, err := s.AddRelation(name, prefix, attrs...); err != nil {
			return nil, fmt.Errorf("engine: schema line %d: %w", lineNo+1, err)
		}
	}
	if len(s.Relations) == 0 {
		return nil, fmt.Errorf("engine: empty schema")
	}
	return s, nil
}
