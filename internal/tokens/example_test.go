package tokens_test

import (
	"fmt"

	"repro/internal/tokens"
)

func ExampleBigramJaccard() {
	fmt.Printf("%.2f\n", tokens.BigramJaccard("new york city", "new york city"))
	fmt.Println(tokens.BigramJaccard("nyc", "boston") < tokens.BigramJaccard("new york", "new york city"))
	// Output:
	// 1.00
	// true
}
