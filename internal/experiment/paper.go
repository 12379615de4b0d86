package experiment

// PaperAverages records a method's AVG column from the paper's tables so
// reports can print paper-vs-reproduction side by side. A zero field with
// Known=false means the paper does not report that value.
type PaperAverages struct {
	NumLFs   float64
	LFAcc    float64
	LFCov    float64
	TotalCov float64
	EM       float64
}

// Value looks up a metric by its table label.
func (p PaperAverages) Value(label string) (float64, bool) {
	switch label {
	case "#LFs":
		return p.NumLFs, true
	case "LF Acc.":
		return p.LFAcc, true
	case "LF Cov.":
		return p.LFCov, true
	case "Total Cov.":
		return p.TotalCov, true
	case "EM Acc/F1":
		return p.EM, true
	default:
		return 0, false
	}
}

// PaperTable2 holds the AVG column of the paper's Table 2.
var PaperTable2 = map[string]PaperAverages{
	MethodWrench:      {NumLFs: 19.0, LFAcc: 0.810, LFCov: 0.239, TotalCov: 0.764, EM: 0.729},
	MethodScriptorium: {NumLFs: 19.2, LFAcc: 0.688, LFCov: 0.720, TotalCov: 0.947, EM: 0.668},
	MethodPromptedLF:  {NumLFs: 18.7, LFAcc: 0.848, LFCov: 0.309, TotalCov: 0.888, EM: 0.759},
	MethodBase:        {NumLFs: 108.2, LFAcc: 0.797, LFCov: 0.020, TotalCov: 0.651, EM: 0.767},
	MethodCoT:         {NumLFs: 95.7, LFAcc: 0.789, LFCov: 0.019, TotalCov: 0.608, EM: 0.746},
	MethodSC:          {NumLFs: 174.8, LFAcc: 0.788, LFCov: 0.018, TotalCov: 0.792, EM: 0.765},
	MethodKATE:        {NumLFs: 202.7, LFAcc: 0.780, LFCov: 0.011, TotalCov: 0.663, EM: 0.768},
}

// PaperTable3 holds the AVG column of the paper's Table 3 (DataSculpt-SC
// with different LLMs).
var PaperTable3 = map[string]PaperAverages{
	"gpt-3.5":    {NumLFs: 174.8, LFAcc: 0.788, LFCov: 0.018, TotalCov: 0.792, EM: 0.765},
	"gpt-4":      {NumLFs: 193.3, LFAcc: 0.836, LFCov: 0.014, TotalCov: 0.753, EM: 0.780},
	"llama2-7b":  {NumLFs: 215.3, LFAcc: 0.722, LFCov: 0.022, TotalCov: 0.788, EM: 0.708},
	"llama2-13b": {NumLFs: 157.8, LFAcc: 0.712, LFCov: 0.015, TotalCov: 0.765, EM: 0.727},
	"llama2-70b": {NumLFs: 185.2, LFAcc: 0.777, LFCov: 0.013, TotalCov: 0.681, EM: 0.739},
}

// PaperTable4 holds the AVG column of the paper's Table 4 (samplers).
var PaperTable4 = map[string]PaperAverages{
	"random":    {NumLFs: 174.8, LFAcc: 0.788, LFCov: 0.018, TotalCov: 0.792, EM: 0.765},
	"uncertain": {NumLFs: 173.2, LFAcc: 0.749, LFCov: 0.014, TotalCov: 0.740, EM: 0.762},
	"seu":       {NumLFs: 70.8, LFAcc: 0.798, LFCov: 0.020, TotalCov: 0.557, EM: 0.733},
}

// PaperTable5 holds the AVG column of the paper's Table 5 (filters).
var PaperTable5 = map[string]PaperAverages{
	"all":           {NumLFs: 174.8, LFAcc: 0.788, LFCov: 0.018, TotalCov: 0.792, EM: 0.765},
	"no accuracy":   {NumLFs: 246.7, LFAcc: 0.693, LFCov: 0.021, TotalCov: 0.862, EM: 0.679},
	"no redundancy": {NumLFs: 235.7, LFAcc: 0.807, LFCov: 0.031, TotalCov: 0.782, EM: 0.737},
}
