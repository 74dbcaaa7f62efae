package repro.cluster

/** PARTIAL-k replication layout (§3.3, Fig. 7).
  *
  * With `nNodes` system nodes, PARTIAL-k splits the dataset into `k`
  * disjoint chunks and replicates each chunk on `nNodes / k` nodes:
  *
  *  - a **replication group** is the set of nodes storing the same chunk
  *    (size = replication degree = nNodes / k) — scheduling and stealing
  *    operate inside a group;
  *  - a **cluster** is a set of k nodes that collectively store the whole
  *    dataset (one node per chunk).
  *
  * PARTIAL-1 = FULL (every node holds everything);
  * PARTIAL-nNodes = EQUALLY-SPLIT (no replication).
  * A power-of-two node count supports 1 + log2(nNodes) degrees.
  */
final case class Layout(nNodes: Int, k: Int) {
  require(nNodes >= 1 && k >= 1 && k <= nNodes, s"bad layout nNodes=$nNodes k=$k")
  require(nNodes % k == 0, s"k=$k must divide nNodes=$nNodes")

  /** Number of chunks. */
  def nChunks: Int = k

  /** Replication degree (= group size = number of clusters). */
  def degree: Int = nNodes / k

  def name: String =
    if (k == 1) "FULL" else if (k == nNodes) "EQUALLY-SPLIT" else s"PARTIAL-$k"
}
