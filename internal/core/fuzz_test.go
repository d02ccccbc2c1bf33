package core

import (
	"bytes"
	"testing"
)

// FuzzLoadModel checks that a model file is validated when it loads: any
// document LoadModel accepts predicts a row of the model's output width on
// a zero input, without panicking. The seed corpus in
// testdata/fuzz/FuzzLoadModel holds the golden model, the legacy artifact
// that still carries a quantized copy of its weights, and the golden model
// with its x scaler a column short.
func FuzzLoadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		out := m.PredictAll([][]float64{make([]float64, m.InputDim())})
		if len(out) != 1 || len(out[0]) != m.OutputDim() {
			t.Fatalf("accepted model (%d->%d) predicted %d rows, first of width %d",
				m.InputDim(), m.OutputDim(), len(out), len(out[0]))
		}
	})
}
