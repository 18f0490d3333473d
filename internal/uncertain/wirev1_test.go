package uncertain

import "encoding/json"

// encodeWireV1 writes the topkclean-wire/v1 JSON document EncodeWire wrote
// before v2, field for field. Nothing in the program writes v1 any more;
// the tests and benchmarks use it to keep the v1 reader honest and to
// measure v2 against it.
func encodeWireV1(db *Database) ([]byte, error) {
	if !db.built {
		return nil, ErrNotBuilt
	}
	pos := make(map[*Tuple]int, db.rs.Len())
	for i, t := range db.rs.All() {
		pos[t] = i
	}
	doc := wireDB{
		Format:  wireFormatV1,
		Version: db.version,
		NextOrd: db.nextOrd,
		NextUID: db.nextUID,
		XTuples: make([]wireGroup, db.groups.Len()),
	}
	for gi, x := range db.groups.All() {
		wg := wireGroup{Name: x.Name, UID: x.uid, Tuples: make([]wireTuple, len(x.Tuples))}
		for ti, t := range x.Tuples {
			wg.Tuples[ti] = wireTuple{ID: t.ID, Attrs: t.Attrs, Prob: t.Prob, Ord: t.ord, Pos: pos[t], Null: t.Null}
		}
		doc.XTuples[gi] = wg
	}
	return json.Marshal(doc)
}
