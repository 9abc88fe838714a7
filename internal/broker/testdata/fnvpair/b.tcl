func main() int { return hash("f4aed1060abe9435"); }
