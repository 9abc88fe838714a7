func main() int { return hash("fd6ef91823745b5e"); }
