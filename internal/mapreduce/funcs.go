package mapreduce

import "hash/fnv"

// HashPartition is the default Hadoop-style partitioner: a stable hash of
// the key's string form modulo the number of reduce tasks. It is what the
// Basic strategy uses on the blocking key, and its collisions of large
// blocks onto one reduce task produce the peaks in Figure 10.
func HashPartition(s string, numReduceTasks int) int {
	h := fnv.New32a()
	h.Write([]byte(s))
	return int(h.Sum32() % uint32(numReduceTasks))
}
