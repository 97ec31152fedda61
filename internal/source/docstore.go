package source

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"disco/internal/types"
)

// DocStore is a keyword-search document server in the spirit of the WAIS
// servers the paper cites: it can scan a collection and filter on a single
// field, and nothing else. Its query language:
//
//	SCAN collection
//	MATCH collection field 'value'        -- exact equality
//	GREP collection field 'substring'     -- substring containment
//
// Wrappers over a DocStore therefore export the paper's weak grammar: get
// and a restricted select, with no composition.
type DocStore struct {
	mu       sync.RWMutex
	docs     map[string][]types.Value
	versions map[string]int64
}

var (
	_ Engine    = (*DocStore)(nil)
	_ Versioned = (*DocStore)(nil)
	_ Versioned = (*RelStore)(nil)
)

// NewDocStore returns an empty store.
func NewDocStore() *DocStore {
	return &DocStore{
		docs:     make(map[string][]types.Value),
		versions: make(map[string]int64),
	}
}

// AddDocument appends a document (a struct) to a collection, creating the
// collection on first use.
func (s *DocStore) AddDocument(collection string, doc *types.Struct) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[collection] = append(s.docs[collection], doc)
	s.versions[collection]++
}

// Versions implements Versioned.
func (s *DocStore) Versions() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.versions))
	for k, v := range s.versions {
		out[k] = v
	}
	return out
}

// Collections implements Engine.
func (s *DocStore) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.docs))
	for n := range s.docs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Query implements Engine.
func (s *DocStore) Query(q string) (*types.Bag, error) {
	fields := splitDocQuery(q)
	if len(fields) == 0 {
		return nil, fmt.Errorf("docstore: empty query")
	}
	op := strings.ToUpper(fields[0])
	switch op {
	case "SCAN":
		if len(fields) != 2 {
			return nil, fmt.Errorf("docstore: SCAN takes a collection name")
		}
		return s.scan(fields[1])
	case "MATCH", "GREP":
		if len(fields) != 4 {
			return nil, fmt.Errorf("docstore: %s takes collection, field and value", op)
		}
		coll, field, value := fields[1], fields[2], fields[3]
		docs, err := s.scan(coll)
		if err != nil {
			return nil, err
		}
		return types.BagFilter(docs, func(d types.Value) (bool, error) {
			st, ok := d.(*types.Struct)
			if !ok {
				return false, nil
			}
			v, ok := st.Get(field)
			if !ok {
				return false, nil
			}
			if op == "MATCH" {
				return v.Equal(types.Str(value)) || matchScalar(v, value), nil
			}
			str, ok := v.(types.Str)
			return ok && strings.Contains(string(str), value), nil
		})
	default:
		return nil, fmt.Errorf("docstore: unknown operation %q", fields[0])
	}
}

func (s *DocStore) scan(collection string) (*types.Bag, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	docs, ok := s.docs[collection]
	if !ok {
		return nil, fmt.Errorf("docstore: no collection %q", collection)
	}
	return types.NewBag(docs...), nil
}

// matchScalar compares a non-string document field against the query text
// by printing it (MATCH sites id '3' matches Int(3)).
func matchScalar(v types.Value, text string) bool {
	if v.Kind() == types.KindString {
		return false
	}
	return v.String() == text
}

// splitDocQuery splits on whitespace, honoring single-quoted values; inside
// quotes a doubled quote stands for one.
func splitDocQuery(q string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(q); i++ {
		c := q[i]
		switch {
		case c == '\'' && inQuote && i+1 < len(q) && q[i+1] == '\'':
			cur.WriteByte(c)
			i++
		case c == '\'':
			if inQuote {
				out = append(out, cur.String()) // may be empty
				cur.Reset()
				inQuote = false
			} else {
				flush()
				inQuote = true
			}
		case !inQuote && (c == ' ' || c == '\t' || c == '\n' || c == '\r'):
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}
