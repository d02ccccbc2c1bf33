// Command cmd stands in for perfbench/: a main package whose calls into
// the module count as references.
package main

import (
	"encoding/json"
	"fmt"

	"nnwc/internal/analysis/testdata/src/unreferenced/a"
)

func main() {
	a.UsedByMain()
	data, err := json.Marshal(nil)
	fmt.Println(string(data), err)
}
