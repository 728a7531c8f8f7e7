package models

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/spider"
)

// schemaOfWidth returns the first width schema tokens of successive
// spider.GenerateSchema tenants: the input a tenant with that many
// schema tokens feeds the encoder after the question and <sep>.
func schemaOfWidth(width int) []string {
	var toks []string
	for seed := int64(1); len(toks) < width; seed++ {
		toks = append(toks, SchemaTokens(spider.GenerateSchema(seed))...)
	}
	return toks[:width]
}

// BenchmarkTranslateSchemaWidth measures one cold greedy Translate —
// no cache in front of it — at the default model shape (embedding 48,
// hidden 96) as the tenant schema widens. InputSequence appends every
// schema token after the question, so the encoder runs one GRU step
// per schema token and attention spans all of them at every decode
// step; out_tokens/op reports the decode length, which the width may
// also change.
func BenchmarkTranslateSchemaWidth(b *testing.B) {
	cfg := DefaultSeq2SeqConfig()
	cfg.Epochs = 40
	m := NewSeq2Seq(cfg)
	m.Train(trainingExamples())
	nl := strings.Fields("show the name of patient with age @PATIENTS.AGE")
	for _, width := range []int{10, 20, 40, 80} {
		b.Run(fmt.Sprintf("schema=%d", width), func(b *testing.B) {
			st := schemaOfWidth(width)
			out := 0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				out += len(m.Translate(nl, st))
			}
			b.ReportMetric(float64(out)/float64(b.N), "out_tokens/op")
		})
	}
}
