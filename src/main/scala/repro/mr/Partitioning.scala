package repro.mr

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import repro.data.DataPoint

/** Round-1 partitioning strategies for the 2-round MapReduce algorithms.
  *
  * The paper's deterministic algorithms split S into ℓ equally-sized subsets
  * in input order — on a real deployment that is `mapPartitions` over
  * contiguous file chunks, which inherits any order correlation of the data
  * (Sec. 5.2 exploits this by additionally forcing all injected outliers
  * into one partition). The randomized variant (Sec. 3.2.1) instead assigns
  * each point to a uniformly random subset, independently.
  *
  * Keys are materialized per point and routed through an identity
  * [[Partitioner]] on the RDD so placement is *exact* (a hash-partitioned
  * DataFrame expression would collide keys and skew subset sizes).
  */
sealed trait Partitioning {
  /** Repartition `ds` into exactly `ell` subsets according to the strategy. */
  def apply(ds: Dataset[DataPoint], ell: Int, seed: Long): Dataset[DataPoint] =
    ds.sparkSession.createDataset(routed(ds, ell, seed))(ds.encoder)

  /** The subsets as an RDD with `ell` partitions: each point is keyed with
    * the strategy's key (drawn from one RNG per source partition) and placed
    * on partition = key. Round 1 maps over this RDD directly.
    */
  private[mr] def routed(ds: Dataset[DataPoint], ell: Int, seed: Long): RDD[DataPoint] = {
    val keyFor = key(ell)
    val keyed = ds.rdd.mapPartitionsWithIndex { (pi, it) =>
      val rng = new scala.util.Random(seed * 1000003L + pi)
      it.map(p => (keyFor(p, rng), p))
    }
    keyed.partitionBy(new Partitioning.IdentityPartitioner(ell)).values
  }

  /** The subset of a point, in [0, ell). */
  protected def key(ell: Int): (DataPoint, scala.util.Random) => Int
}

object Partitioning {

  private[mr] final class IdentityPartitioner(ell: Int) extends Partitioner {
    override def numPartitions: Int = ell
    override def getPartition(key: Any): Int = key.asInstanceOf[Int]
  }

  /** Equal-size round-robin split by id — each subset is a "miniature" of
    * the dataset, as chunks of the (row-i.i.d.) real datasets are. This is
    * what makes the μ=1 coreset of the outlier-crowded partition of Fig. 4
    * genuinely too coarse: its ~k surviving slots must summarize structure
    * that needs k centers at optimal radius.
    */
  case object Arbitrary extends Partitioning {
    protected def key(ell: Int): (DataPoint, scala.util.Random) => Int =
      (p, _) => math.floorMod(p.id, ell.toLong).toInt
  }

  /** Uniform independent random assignment (randomized algorithm, Sec 3.2.1). */
  case object Random extends Partitioning {
    protected def key(ell: Int): (DataPoint, scala.util.Random) => Int =
      (_, rng) => rng.nextInt(ell)
  }

  /** Adversarial split for Fig. 4: round-robin, but every injected outlier
    * is forced into partition 0.
    */
  case object AdversarialOutliers extends Partitioning {
    protected def key(ell: Int): (DataPoint, scala.util.Random) => Int =
      (p, _) => if (p.isOutlier) 0 else math.floorMod(p.id, ell.toLong).toInt
  }
}
