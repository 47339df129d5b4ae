package repro.mr

import org.apache.spark.Partitioner
import org.apache.spark.rdd.{PartitionCoalescer, PartitionGroup, RDD}
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
  *
  * The keys are drawn per source partition, before anything else happens, so
  * which subset a point lands in does not depend on the core count. The keyed
  * RDD is then range-coalesced without a shuffle to at most
  * `defaultParallelism` map tasks ([[Partitioning.RangeCoalescer]]): the
  * shuffle writes one block per map task and subset, and its bookkeeping, not
  * the data, is what round 1 spends on small inputs. The order is unchanged:
  * a map task emits its consecutive source partitions in index order, and a
  * reducer reads the map outputs in map-task order, so every subset holds the
  * same points in the same order as without the coalesce.
  */
sealed trait Partitioning {
  /** Repartition `ds` into exactly `ell` subsets according to the strategy. */
  def apply(ds: Dataset[DataPoint], ell: Int, seed: Long): Dataset[DataPoint] =
    ds.sparkSession.createDataset(routed(ds, ell, seed))(ds.encoder)

  /** The subsets as an RDD with `ell` partitions: each point is placed on
    * partition = its key, from `min(source partitions, defaultParallelism)`
    * map tasks. Round 1 maps over this RDD directly.
    */
  private[mr] def routed(ds: Dataset[DataPoint], ell: Int, seed: Long): RDD[DataPoint] = {
    val pairs = keyed(ds, ell, seed)
    // At least 1: coalesce rejects 0, and an empty input has no partitions.
    val mapTasks = math.max(1, math.min(pairs.getNumPartitions, pairs.sparkContext.defaultParallelism))
    pairs.coalesce(mapTasks, shuffle = false, Some(Partitioning.RangeCoalescer))
      .partitionBy(new Partitioning.IdentityPartitioner(ell)).values
  }

  /** Each point with the strategy's key, drawn from one RNG per source
    * partition, in the source partitions.
    */
  private[mr] def keyed(ds: Dataset[DataPoint], ell: Int, seed: Long): RDD[(Int, DataPoint)] = {
    val keyFor = key(ell)
    ds.rdd.mapPartitionsWithIndex { (pi, it) =>
      val rng = new scala.util.Random(seed * 1000003L + pi)
      it.map(p => (keyFor(p, rng), p))
    }
  }

  /** The subset of a point, in [0, ell). */
  protected def key(ell: Int): (DataPoint, scala.util.Random) => Int
}

object Partitioning {

  private[mr] final class IdentityPartitioner(ell: Int) extends Partitioner {
    override def numPartitions: Int = ell
    override def getPartition(key: Any): Int = key.asInstanceOf[Int]
  }

  /** Groups a parent's n partitions into min(maxPartitions, n) consecutive
    * index ranges of ⌊n/g⌋ or ⌈n/g⌉ partitions, each in index order.
    *
    * No group names a location. The scheduler then walks the coalesced RDD's
    * narrow dependency and runs the task where the first member with a known
    * location lives (a cached block or an input split). The public
    * `preferredLocations` of the mapped parent sees neither. On a cluster a
    * group's other members may be read remotely; in local mode every block is
    * local.
    */
  private[mr] object RangeCoalescer extends PartitionCoalescer with Serializable {
    override def coalesce(maxPartitions: Int, parent: RDD[_]): Array[PartitionGroup] = {
      val parts = parent.partitions
      val n = parts.length
      val g = math.min(maxPartitions, n)
      Array.tabulate(g) { i =>
        val group = new PartitionGroup()
        group.partitions ++= parts.slice((i.toLong * n / g).toInt, ((i + 1).toLong * n / g).toInt)
        group
      }
    }
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
